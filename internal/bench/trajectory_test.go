package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func sampleMeasurement() Measurement {
	return Measurement{
		Query: "QS1", Dataset: "shakespeare", Factor: 1,
		Translator: "pushup", Engine: "relational",
		Elapsed: 42 * time.Microsecond, Visited: 100, PageMisses: 7,
		Results: 10, Joins: 0,
	}
}

// TestTrajectoryRoundTrip writes a trajectory and validates the file
// the way CI does, then checks the JSON carries the documented fields.
func TestTrajectoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := NewTrajectory("plan")
	tr.Add(sampleMeasurement())
	m2 := sampleMeasurement()
	m2.Engine = "twig"
	tr.Add(m2)

	path, err := tr.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_plan.json" {
		t.Errorf("wrote %s, want BENCH_plan.json", path)
	}
	if err := ValidateTrajectoryFile(path); err != nil {
		t.Fatalf("freshly written trajectory fails validation: %v", err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"schema", "figure", "git_rev", "gomaxprocs", "goos", "goarch", "records"} {
		if _, ok := doc[key]; !ok {
			t.Errorf("trajectory JSON missing key %q", key)
		}
	}
	var got Trajectory
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Schema != TrajectorySchema || got.Figure != "plan" {
		t.Errorf("schema/figure = %q/%q", got.Schema, got.Figure)
	}
	if got.GOMAXPROCS != runtime.GOMAXPROCS(0) || got.GOOS != runtime.GOOS {
		t.Errorf("environment stamp = %d/%s", got.GOMAXPROCS, got.GOOS)
	}
	if len(got.Records) != 2 || got.Records[0].NSPerOp != 42000 || got.Records[1].Engine != "twig" || got.Records[1].Parallelism != 1 {
		t.Errorf("records round-tripped wrong: %+v", got.Records)
	}
}

// TestTrajectoryValidateRejects enumerates the malformed shapes the CI
// gate must catch.
func TestTrajectoryValidateRejects(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := NewTrajectory("13")
	good.Add(sampleMeasurement())
	goodJSON, err := json.Marshal(good)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string]string{
		"truncated":     string(goodJSON[:len(goodJSON)/2]),
		"not JSON":      "ns/op 12345",
		"wrong schema":  strings.Replace(string(goodJSON), TrajectorySchema, "blas-bench-trajectory/v0", 1),
		"no records":    `{"schema":"` + TrajectorySchema + `","figure":"13","git_rev":"unknown","gomaxprocs":4,"goos":"linux","goarch":"amd64","records":[]}`,
		"unknown field": strings.Replace(string(goodJSON), `"figure"`, `"surprise":1,"figure"`, 1),
		"bad engine":    strings.Replace(string(goodJSON), `"relational"`, `"vectorized"`, 1),
		"zero ns_per_op": strings.Replace(string(goodJSON),
			`"ns_per_op":42000`, `"ns_per_op":0`, 1),
	}
	for name, content := range cases {
		path := write(strings.ReplaceAll(name, " ", "_")+".json", content)
		if err := ValidateTrajectoryFile(path); err == nil {
			t.Errorf("%s trajectory passed validation", name)
		}
	}

	// WriteFile itself must refuse a malformed trajectory.
	empty := NewTrajectory("13")
	if _, err := empty.WriteFile(dir); err == nil {
		t.Error("WriteFile accepted a trajectory with no records")
	}
}

// TestHarnessRecordsMeasurements checks Run feeds the trajectory log.
func TestHarnessRecordsMeasurements(t *testing.T) {
	h := New()
	h.Repeats = 1
	defer h.Close()

	m, err := h.Run("shakespeare", 1, "QS1", Fig10Queries["QS1"], "pushup", "relational", false)
	if err != nil {
		t.Fatal(err)
	}
	recs := h.Measurements()
	if len(recs) != 1 || recs[0].Query != "QS1" || recs[0].Elapsed != m.Elapsed {
		t.Fatalf("measurement log = %+v, want the one Run result", recs)
	}

	tr := NewTrajectory("smoke")
	for _, rec := range recs {
		tr.Add(rec)
	}
	if _, err := tr.WriteFile(t.TempDir()); err != nil {
		t.Fatalf("harness measurements do not form a valid trajectory: %v", err)
	}

	h.ResetMeasurements()
	if len(h.Measurements()) != 0 {
		t.Error("ResetMeasurements left measurements behind")
	}
}

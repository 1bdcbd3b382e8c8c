package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
)

// TrajectorySchema identifies the BENCH_<figure>.json format. Bump the
// suffix on any incompatible change so downstream tooling comparing
// trajectories across commits can refuse mixed versions.
const TrajectorySchema = "blas-bench-trajectory/v1"

// TrajectoryRecord is one measurement in machine-readable form.
type TrajectoryRecord struct {
	Query       string `json:"query"`
	Dataset     string `json:"dataset"`
	Factor      int    `json:"factor"`
	Translator  string `json:"translator"`
	Engine      string `json:"engine"`
	Parallelism int    `json:"parallelism"` // always 1: a query runs on one goroutine
	NSPerOp     int64  `json:"ns_per_op"`
	Visited     uint64 `json:"visited_elements"`
	PageReads   uint64 `json:"page_reads"`
	PageMisses  uint64 `json:"page_misses"`
	Results     int    `json:"results"`
	Joins       int    `json:"joins"`
}

// Trajectory is the persisted form of one figure's benchmark run: the
// measurements plus enough environment (git revision, GOMAXPROCS,
// platform) to compare the numbers across commits and machines. CI
// archives one BENCH_<figure>.json per run, giving the repository a
// performance trajectory over its history.
type Trajectory struct {
	Schema     string             `json:"schema"`
	Figure     string             `json:"figure"`
	GitRev     string             `json:"git_rev"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GOOS       string             `json:"goos"`
	GOARCH     string             `json:"goarch"`
	Records    []TrajectoryRecord `json:"records"`
}

// NewTrajectory returns an empty trajectory for one figure, stamped
// with the current environment.
func NewTrajectory(figure string) *Trajectory {
	return &Trajectory{
		Schema:     TrajectorySchema,
		Figure:     figure,
		GitRev:     gitRevision(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
	}
}

// gitRevision reads the vcs revision stamped into the binary at build
// time; "unknown" when built outside a checkout or with -buildvcs=off.
func gitRevision() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// Add appends one measurement.
func (t *Trajectory) Add(m Measurement) {
	t.Records = append(t.Records, TrajectoryRecord{
		Query:       m.Query,
		Dataset:     m.Dataset,
		Factor:      m.Factor,
		Translator:  m.Translator,
		Engine:      m.Engine,
		Parallelism: 1,
		NSPerOp:     m.Elapsed.Nanoseconds(),
		Visited:     m.Visited,
		PageReads:   m.PageReads,
		PageMisses:  m.PageMisses,
		Results:     m.Results,
		Joins:       m.Joins,
	})
}

// WriteFile writes the trajectory to dir as BENCH_<figure>.json and
// returns the path. The write is atomic (temp file + rename) so a
// crashed run never leaves a half-written trajectory for CI to archive.
func (t *Trajectory) WriteFile(dir string) (string, error) {
	if err := t.validate(); err != nil {
		return "", fmt.Errorf("bench: refusing to write trajectory: %w", err)
	}
	data, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return "", err
	}
	data = append(data, '\n')
	path := filepath.Join(dir, "BENCH_"+t.Figure+".json")
	tmp, err := os.CreateTemp(dir, ".bench-*.json")
	if err != nil {
		return "", err
	}
	if _, err := tmp.Write(data); err != nil {
		_ = tmp.Close()
		os.Remove(tmp.Name())
		return "", err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", err
	}
	return path, nil
}

// validate checks the invariants every well-formed trajectory satisfies
// — shared by WriteFile (refuse to produce garbage) and
// ValidateTrajectoryFile (refuse to archive it).
func (t *Trajectory) validate() error {
	if t.Schema != TrajectorySchema {
		return fmt.Errorf("schema %q, want %q", t.Schema, TrajectorySchema)
	}
	if t.Figure == "" {
		return fmt.Errorf("empty figure name")
	}
	if t.GOMAXPROCS < 1 {
		return fmt.Errorf("gomaxprocs %d < 1", t.GOMAXPROCS)
	}
	if t.GitRev == "" {
		return fmt.Errorf("empty git_rev (use \"unknown\" when not built from a checkout)")
	}
	if len(t.Records) == 0 {
		return fmt.Errorf("no records")
	}
	for i, r := range t.Records {
		switch {
		case r.Query == "" || r.Dataset == "":
			return fmt.Errorf("record %d: empty query or dataset", i)
		case r.Engine != "relational" && r.Engine != "twig":
			return fmt.Errorf("record %d: unknown engine %q", i, r.Engine)
		case r.Translator == "":
			return fmt.Errorf("record %d: empty translator", i)
		case r.Parallelism < 1:
			return fmt.Errorf("record %d: parallelism %d < 1", i, r.Parallelism)
		case r.NSPerOp <= 0:
			return fmt.Errorf("record %d: ns_per_op %d <= 0", i, r.NSPerOp)
		case r.Results < 0 || r.Joins < 0:
			return fmt.Errorf("record %d: negative results or joins", i)
		}
	}
	return nil
}

// ValidateTrajectoryFile parses and validates one BENCH_*.json file,
// rejecting unknown fields, schema mismatches and malformed records —
// the CI gate that keeps broken trajectories out of the archive.
func ValidateTrajectoryFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var t Trajectory
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := t.validate(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	blas "repro"
	"repro/internal/server"
)

func quickRun(t *testing.T, workload string, seed int64, trace bool) *runResult {
	t.Helper()
	res, err := run(runConfig{Workload: workload, Seed: seed, Seconds: 0.3, Trace: trace, Quick: true, WorkDir: t.TempDir()})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("%s seed %d trace %v: %d of %d operations failed: %s", workload, seed, trace, res.Failed, res.Attempted, res.FirstError)
	}
	return res
}

// Every workload reports exactly the metrics BENCHMARK.json declares, in
// the declared units: the end-to-end ones untraced, the per-layer ones
// traced.
func TestWorkloadsReportDeclaredMetrics(t *testing.T) {
	man, err := readManifest(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if man.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the benchmark's default is %d", man.RunSeconds, defaultSeconds)
	}
	if len(man.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(man.Workloads), len(specs))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	for _, w := range man.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json names unknown workload %q", w.Name)
			continue
		}
		for _, pass := range []struct {
			trace    bool
			declared []manifestMetric
		}{{false, man.EndToEnd}, {true, man.PerLayer}} {
			w, pass := w, pass
			t.Run(w.Name+map[bool]string{false: "/end_to_end", true: "/per_layer"}[pass.trace], func(t *testing.T) {
				t.Parallel()
				res := quickRun(t, w.Name, 1, pass.trace)
				want := map[string]string{}
				for _, m := range pass.declared {
					if !name.MatchString(m.Name) {
						t.Errorf("bad metric name %q", m.Name)
					}
					want[m.Name] = m.Unit
				}
				for n, m := range res.Metrics {
					if unit, ok := want[n]; !ok {
						t.Errorf("undeclared metric %s", n)
					} else if unit != m.Unit {
						t.Errorf("%s: unit %q, declared %q", n, m.Unit, unit)
					}
				}
				for n := range want {
					m, ok := res.Metrics[n]
					if !ok {
						t.Errorf("declared metric %s not reported", n)
					} else if !pass.trace && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must be positive", n, m.Value)
					}
				}
				if w.Name == "query_warm" && !pass.trace && res.Info["page_misses_per_q"].Value != 0 {
					t.Errorf("query_warm saw %v misses per query", res.Info["page_misses_per_q"].Value)
				}
			})
		}
	}
}

// At Parallelism 1 the page counters of query_cold depend on the inputs
// alone, so two runs with one seed agree exactly; and the oracle holds on
// another document.
func TestQueryColdCountersRepeat(t *testing.T) {
	t.Parallel()
	a, b := quickRun(t, "query_cold", 7, false), quickRun(t, "query_cold", 7, false)
	if ma, mb := a.Info["page_misses_per_q"].Value, b.Info["page_misses_per_q"].Value; ma != mb || ma == 0 {
		t.Errorf("page_misses_per_q: %v then %v with the same seed", ma, mb)
	}
	if a.Metrics["page_reads_per_q"].Value != b.Metrics["page_reads_per_q"].Value {
		t.Errorf("page_reads_per_q: %v then %v with the same seed", a.Metrics["page_reads_per_q"].Value, b.Metrics["page_reads_per_q"].Value)
	}
	quickRun(t, "query_cold", 8, false)
}

// The oracle notices a wrong result.
func TestOracleRejectsWrongResult(t *testing.T) {
	h := newStartHash()
	h.add(5)
	h.add(9)
	o := &oracle{want: map[string]expectation{"/a": expectation(h)}}
	if err := o.verifyMatches("/a", []blas.Match{{Start: 5}, {Start: 9}}); err != nil {
		t.Errorf("right result rejected: %v", err)
	}
	if err := o.verifyMatches("/a", []blas.Match{{Start: 5}, {Start: 10}}); err == nil {
		t.Error("wrong start accepted")
	}
	if err := o.verifyMatches("/a", []blas.Match{{Start: 5}}); err == nil {
		t.Error("missing match accepted")
	}
	if err := o.verifyMatches("/b", nil); err == nil {
		t.Error("query without expectation accepted")
	}
}

// The byte scanner reads the same starts out of a response as
// encoding/json does, whatever the values contain.
func TestScanMatchStarts(t *testing.T) {
	resp := server.QueryResponse{
		Query: `/a[b="x"]`, Count: 3, Cached: true,
		Matches: []blas.Match{
			{Start: 7, Tag: "a", Value: `tricky "start":99 } ] \`, Path: "/a"},
			{Start: 4294967295, Tag: "b", Path: "/a/b"},
			{Start: 0, Value: `{"matches":[{"start":1}]}`},
		},
		Stats: blas.ExecStats{Elapsed: 1234, Phases: &blas.PhaseBreakdown{Partitions: []uint64{1, 2}}},
	}
	body, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	want := newStartHash()
	for _, m := range resp.Matches {
		want.add(m.Start)
	}
	o := &oracle{want: map[string]expectation{"q": expectation(want)}}
	got, err := o.verifyResponse("q", body)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Cached || got.Stats.Elapsed != 1234 || got.Count != 3 || len(got.Matches) != 0 {
		t.Errorf("response outside the matches decoded wrongly: %+v", got)
	}
	if _, err := o.verifyResponse("q", bytes.Replace(body, []byte(`"start":7`), []byte(`"start":8`), 1)); err == nil {
		t.Error("changed start accepted")
	}
	empty, _ := json.Marshal(server.QueryResponse{Matches: []blas.Match{}})
	o.want["e"] = expectation(newStartHash())
	if _, err := o.verifyResponse("e", empty); err != nil {
		t.Errorf("empty result rejected: %v", err)
	}
}

// The open-loop generator times a request from when it was due: when the
// server stalls, requests that were due during the stall carry the wait
// even though their own round trips are short.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	t.Parallel()
	const stall = 300 * time.Millisecond
	var seen atomic.Int64
	body, _ := json.Marshal(server.QueryResponse{Query: "/a", Matches: []blas.Match{}})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Stall one request per connection, so nothing gets through.
		if seen.Add(1) <= connections {
			time.Sleep(stall)
		}
		_, _ = w.Write(body)
	}))
	defer srv.Close()
	ops := []variant{{Name: "stub", Query: "/a", Engine: blas.EngineRelational, Translator: blas.TranslatorAuto}}
	o := &oracle{want: map[string]expectation{"/a": expectation(newStartHash())}}
	c, err := newLoadClient(srv.URL, ops, o)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	const rate = 200.0
	res := c.openLoop(make([]int, 100), rate) // 100 requests, due 5 ms apart
	if len(res.failed) != 0 {
		t.Fatalf("stub requests failed: %v", res.failed[0])
	}
	waited := 0
	for i, lat := range res.all {
		if rt := res.replies[i].roundTrip; rt < stall/4 && lat > stall/2 {
			waited++
			if late := res.late[i]; lat < late {
				t.Errorf("latency %v is less than the %v the request was sent late", lat, late)
			}
		}
	}
	// About stall*rate = 60 requests fell due during the stall; those due
	// in its first half waited more than stall/2.
	if waited < 20 {
		t.Errorf("only %d requests carry the stall in their latency; latencies are not timed from due time", waited)
	}
	if max := res.all.percentile(100); max < stall {
		t.Errorf("max latency %v is below the stall %v", max, stall)
	}
}

// -compare flags a metric that got worse by more than its bound, and
// calls a metric unresolved when a file's own repeats spread wider.
func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	bound := 0.1
	man := write("BENCHMARK.json", manifest{EndToEnd: []manifestMetric{
		{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: &bound},
		{Name: "q_per_s", Unit: "1/s", Better: "higher", Bound: &bound},
	}})
	rep := func(lat, qps spread) *report {
		return &report{Workloads: map[string]*workloadReport{"w": {EndToEnd: map[string]*spread{"lat_p50_ms": &lat, "q_per_s": &qps}}}}
	}
	base := write("a.json", rep(spread{Min: 9.9, Median: 10, Max: 10.1}, spread{Min: 99, Median: 100, Max: 101}))
	same := write("b.json", rep(spread{Min: 10, Median: 10.2, Max: 10.3}, spread{Min: 80, Median: 98, Max: 102}))
	slow := write("c.json", rep(spread{Min: 11.9, Median: 12, Max: 12.1}, spread{Min: 99, Median: 100, Max: 101}))

	var out bytes.Buffer
	worse, err := compareFiles(&out, man, base, same)
	if err != nil || worse {
		t.Fatalf("equal runs: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if !strings.Contains(out.String(), "unchanged") || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("want lat_p50_ms unchanged and q_per_s unresolved:\n%s", out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, man, base, slow)
	if err != nil || !worse || !strings.Contains(out.String(), "WORSE") {
		t.Errorf("a 20%% slower median must be flagged: worse=%v err=%v\n%s", worse, err, out.String())
	}
}

// Observability contract tests (PR 6): per-query phase traces must tile
// the reported latency, Store.Metrics must stay consistent and must
// render valid expvar-compatible JSON, and Store.Stats must surface
// live buffer pool snapshots.
package blas

import (
	"encoding/json"
	"expvar"
	"testing"
	"time"
)

// phaseSum is the portion of a breakdown measured on the coordinating
// goroutine — the spans that tile Elapsed. Decode overlaps Scan and
// Sweep and is deliberately excluded.
func phaseSum(p *PhaseBreakdown) time.Duration {
	return p.Parse + p.Translate + p.Scan + p.Join + p.Sweep + p.Finalize
}

// TestTracePhasesSumToElapsed runs traced queries on both engines and
// requires the phase spans to tile the reported latency: the sum must
// not exceed Elapsed (beyond clock noise), and the uninstrumented
// residual must stay a small fraction of it. No query records sweep
// partitions.
func TestTracePhasesSumToElapsed(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	queries := []string{
		"/db/entry/protein/name",
		`//entry[reference//year="1995"]//name`,
	}
	for _, engine := range []Engine{EngineRelational, EngineTwig} {
		for _, q := range queries {
			res, err := st.Query(q, QueryOptions{Engine: engine, Trace: true})
			if err != nil {
				t.Fatalf("%s %s: %v", engine, q, err)
			}
			s := res.Stats
			if s.Phases == nil {
				t.Fatalf("%s %s: Trace requested but Phases is nil", engine, q)
			}
			if s.Elapsed != s.PlanElapsed+s.ExecElapsed {
				t.Errorf("%s %s: elapsed %v != plan %v + exec %v",
					engine, q, s.Elapsed, s.PlanElapsed, s.ExecElapsed)
			}
			sum := phaseSum(s.Phases)
			residual := s.Elapsed - sum
			if residual < -time.Millisecond {
				t.Errorf("%s %s: phase sum %v exceeds elapsed %v", engine, q, sum, s.Elapsed)
			}
			maxResidual := s.Elapsed / 4
			if maxResidual < 10*time.Millisecond {
				maxResidual = 10 * time.Millisecond
			}
			if residual > maxResidual {
				t.Errorf("%s %s: uninstrumented residual %v of elapsed %v (phases %+v)",
					engine, q, residual, s.Elapsed, *s.Phases)
			}
			if planned := s.Phases.Parse + s.Phases.Translate; planned > s.PlanElapsed+time.Millisecond {
				t.Errorf("%s %s: parse+translate %v > plan elapsed %v", engine, q, planned, s.PlanElapsed)
			}
			switch engine {
			case EngineRelational:
				if s.Phases.Sweep != 0 {
					t.Errorf("relational query recorded twig phases: %+v", *s.Phases)
				}
				if s.Phases.Scan <= 0 {
					t.Errorf("relational %s: no scan span recorded", q)
				}
			case EngineTwig:
				if s.Phases.Sweep <= 0 {
					t.Errorf("twig %s: no sweep span recorded", q)
				}
			}
			if len(s.Phases.Partitions) != 0 {
				t.Errorf("%s %s recorded partitions: %v", engine, q, s.Phases.Partitions)
			}
		}
	}

	// Tracing stays strictly opt-in.
	res, err := st.Query(queries[0], QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Phases != nil {
		t.Errorf("untraced query returned a phase breakdown: %+v", *res.Stats.Phases)
	}
}

// TestStoreMetricsQuiescent checks exact totals after a known workload,
// plus the internal cross-checks between the aggregate and per-label
// views.
func TestStoreMetricsQuiescent(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if m := st.Metrics(); m.Queries != 0 || m.InFlight != 0 || m.QueryErrors != 0 {
		t.Fatalf("fresh store has nonzero metrics: %+v", m)
	}

	var wantVisited, wantReads, wantMisses uint64
	const perEngine = 3
	for _, engine := range []Engine{EngineRelational, EngineTwig} {
		for i := 0; i < perEngine; i++ {
			res, err := st.Query("/db/entry/protein/name", QueryOptions{Engine: engine})
			if err != nil {
				t.Fatal(err)
			}
			wantVisited += res.Stats.VisitedElements
			wantReads += res.Stats.PageReads
			wantMisses += res.Stats.PageMisses
		}
	}
	if _, err := st.Query("][", QueryOptions{}); err == nil {
		t.Fatal("malformed query unexpectedly succeeded")
	}

	m := st.Metrics()
	if m.Queries != 2*perEngine {
		t.Errorf("queries = %d, want %d", m.Queries, 2*perEngine)
	}
	if m.QueryErrors != 1 {
		t.Errorf("query errors = %d, want 1", m.QueryErrors)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", m.InFlight)
	}
	if m.VisitedElements != wantVisited || m.PageReads != wantReads || m.PageMisses != wantMisses {
		t.Errorf("cumulative stats = %d/%d/%d, want %d/%d/%d",
			m.VisitedElements, m.PageReads, m.PageMisses, wantVisited, wantReads, wantMisses)
	}
	if got := m.ByEngine[string(EngineRelational)].Count; got != perEngine {
		t.Errorf("relational count = %d, want %d", got, perEngine)
	}
	if got := m.ByEngine[string(EngineTwig)].Count; got != perEngine {
		t.Errorf("twig count = %d, want %d", got, perEngine)
	}
	if m.Latency.Count != m.Queries || m.Latency.Mean <= 0 {
		t.Errorf("latency count %d / mean %v inconsistent with %d queries", m.Latency.Count, m.Latency.Mean, m.Queries)
	}
	var bucketSum uint64
	for _, b := range m.Latency.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != m.Latency.Count {
		t.Errorf("bucket sum %d != latency count %d", bucketSum, m.Latency.Count)
	}
}

// TestStoreMetricsJSON pins the export format: Metrics marshals to the
// documented JSON keys and String satisfies the expvar.Var contract
// (valid JSON, same document).
func TestStoreMetricsJSON(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query("/db/entry/protein/name", QueryOptions{Engine: EngineTwig}); err != nil {
		t.Fatal(err)
	}

	m := st.Metrics()
	var _ expvar.Var = m // compile-time: StoreMetrics is publishable

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(m.String()), &doc); err != nil {
		t.Fatalf("String() is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"in_flight", "queries", "query_errors", "visited_elements",
		"page_reads", "page_misses", "latency", "queries_by_engine",
		"queries_by_translator", "pools",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("metrics JSON missing key %q", key)
		}
	}
	marshaled, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if string(marshaled) != m.String() {
		t.Error("String() and json.Marshal disagree")
	}

	var pools map[string]PoolMetrics
	if err := json.Unmarshal(doc["pools"], &pools); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"sp", "sd"} {
		p, ok := pools[name]
		if !ok {
			t.Fatalf("pools JSON missing relation %q", name)
		}
		if p.Shards < 1 || len(p.PerShard) != p.Shards {
			t.Errorf("pool %q: %d per-shard rows for %d shards", name, len(p.PerShard), p.Shards)
		}
		var reads, misses, evictions uint64
		for _, sh := range p.PerShard {
			reads += sh.Reads
			misses += sh.Misses
			evictions += sh.Evictions
		}
		if reads != p.Reads || misses != p.Misses || evictions != p.Evictions {
			t.Errorf("pool %q: shard sums %d/%d/%d != totals %d/%d/%d",
				name, reads, misses, evictions, p.Reads, p.Misses, p.Evictions)
		}
	}
}

// TestStoreStatsPoolSnapshot checks the public pool snapshot: queries on
// both label schemes drive traffic into both relation files, and the
// hits/misses split stays arithmetically consistent.
func TestStoreStatsPoolSnapshot(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Push-up selects on the SP relation; the D-labeling baseline scans SD.
	if _, err := st.Query("/db/entry/protein/name", QueryOptions{Translator: TranslatorPushUp}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query("//name", QueryOptions{Translator: TranslatorDLabel}); err != nil {
		t.Fatal(err)
	}

	stats := st.Stats()
	if stats.Nodes == 0 || stats.Tags == 0 {
		t.Fatalf("document stats lost: %+v", stats)
	}
	for name, p := range map[string]PoolStats{"SP": stats.SP, "SD": stats.SD} {
		if p.Reads == 0 {
			t.Errorf("%s pool saw no reads after queries on both schemes", name)
		}
		if p.Hits+p.Misses != p.Reads {
			t.Errorf("%s pool: hits %d + misses %d != reads %d", name, p.Hits, p.Misses, p.Reads)
		}
		if p.Shards < 1 {
			t.Errorf("%s pool reports %d shards", name, p.Shards)
		}
	}
}

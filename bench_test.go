// Benchmarks reproducing the paper's evaluation (§5), one benchmark tree
// per figure, plus ablations of the design choices called out in
// DESIGN.md. Each iteration is a cold-cache execution, matching the
// paper's measurement protocol (§5.1). cmd/blasbench prints the same
// experiments as paper-style tables.
package blas

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/enginetest"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// Shared stores, built once per (dataset, factor, poolPages).
var (
	benchMu     sync.Mutex
	benchStores = map[string]*core.Store{}
)

func benchStore(b *testing.B, dataset string, factor, poolPages int) *core.Store {
	b.Helper()
	benchMu.Lock()
	defer benchMu.Unlock()
	key := fmt.Sprintf("%s/%d/%d", dataset, factor, poolPages)
	if st, ok := benchStores[key]; ok {
		return st
	}
	tree, err := datagen.ByName(dataset, datagen.Options{Seed: 1, Factor: factor})
	if err != nil {
		b.Fatal(err)
	}
	st, err := core.BuildFromTree(tree, core.Options{PoolPages: poolPages})
	if err != nil {
		b.Fatal(err)
	}
	benchStores[key] = st
	return st
}

func benchPlan(b *testing.B, st *core.Store, query, translator string, strip bool) *translate.Plan {
	b.Helper()
	q, err := xpath.Parse(query)
	if err != nil {
		b.Fatal(err)
	}
	if strip {
		q = bench.StripValues(q)
	}
	tr, err := translate.ByName(translator)
	if err != nil {
		b.Fatal(err)
	}
	plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, q)
	if err != nil {
		b.Fatal(err)
	}
	return plan
}

func runRelational(b *testing.B, st *core.Store, plan *translate.Plan) {
	b.Helper()
	b.ReportAllocs()
	var ctx *relstore.ExecContext
	for i := 0; i < b.N; i++ {
		if err := st.DropCaches(); err != nil {
			b.Fatal(err)
		}
		ctx = relstore.NewExecContext()
		if _, err := relengine.Execute(ctx, st, planner.Fixed(plan), relengine.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Visited()), "elements/op")
	b.ReportMetric(float64(ctx.PageMisses()), "diskaccess/op")
}

func runTwig(b *testing.B, st *core.Store, plan *translate.Plan) {
	b.Helper()
	b.ReportAllocs()
	var ctx *relstore.ExecContext
	for i := 0; i < b.N; i++ {
		if err := st.DropCaches(); err != nil {
			b.Fatal(err)
		}
		ctx = relstore.NewExecContext()
		if _, err := twig.Execute(ctx, st, planner.Fixed(plan), core.ExecConfig{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(ctx.Visited()), "elements/op")
	b.ReportMetric(float64(ctx.PageMisses()), "diskaccess/op")
}

// BenchmarkFig11_PlanShapes measures query translation itself for QS3
// under the four translators (the work behind Fig. 11).
func BenchmarkFig11_PlanShapes(b *testing.B) {
	st := benchStore(b, "shakespeare", 1, 0)
	q := xpath.MustParse(bench.Fig10Queries["QS3"])
	ctx := translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
	for _, name := range []string{"dlabel", "split", "pushup", "unfold"} {
		tr, _ := translate.ByName(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tr(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig12_Shred measures the index generator (the cost of
// producing Fig. 12's stores).
func BenchmarkFig12_Shred(b *testing.B) {
	for _, name := range datagen.Names() {
		tree, err := datagen.ByName(name, datagen.Options{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := core.BuildFromTree(tree, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				st.Close()
			}
		})
	}
}

// BenchmarkFig13_RDBMS reproduces Fig. 13 (a-c): the nine Fig. 10 queries
// under every translator on the relational engine.
func BenchmarkFig13_RDBMS(b *testing.B) {
	for _, qn := range bench.QueryOrder(bench.Fig10Queries) {
		ds, err := bench.DatasetOf(qn)
		if err != nil {
			b.Fatal(err)
		}
		st := benchStore(b, ds, 1, 0)
		for _, tr := range []string{"dlabel", "split", "pushup", "unfold"} {
			b.Run(qn+"/"+tr, func(b *testing.B) {
				plan := benchPlan(b, st, bench.Fig10Queries[qn], tr, false)
				runRelational(b, st, plan)
			})
		}
	}
}

// BenchmarkFig14_Twig reproduces Fig. 14 (a,b): all nine queries on the
// holistic twig join engine, value predicates stripped (§5.3.1).
func BenchmarkFig14_Twig(b *testing.B) {
	for _, qn := range bench.QueryOrder(bench.Fig10Queries) {
		ds, err := bench.DatasetOf(qn)
		if err != nil {
			b.Fatal(err)
		}
		st := benchStore(b, ds, 1, 0)
		for _, tr := range []string{"dlabel", "split", "pushup"} {
			b.Run(qn+"/"+tr, func(b *testing.B) {
				plan := benchPlan(b, st, bench.Fig10Queries[qn], tr, true)
				runTwig(b, st, plan)
			})
		}
	}
}

// BenchmarkFig15_XMark reproduces Fig. 15 (a,b): the XMark benchmark
// skeleton queries on the twig engine.
func BenchmarkFig15_XMark(b *testing.B) {
	st := benchStore(b, "auction", 1, 0)
	for _, qn := range bench.QueryOrder(bench.Fig15Queries) {
		for _, tr := range []string{"dlabel", "split", "pushup"} {
			b.Run(qn+"/"+tr, func(b *testing.B) {
				plan := benchPlan(b, st, bench.Fig15Queries[qn], tr, true)
				runTwig(b, st, plan)
			})
		}
	}
}

// scalability is the engine behind Figs. 16-18: one query across growing
// Auction data.
func scalability(b *testing.B, queryName string) {
	for _, factor := range []int{1, 3} {
		st := benchStore(b, "auction", factor, 0)
		for _, tr := range []string{"dlabel", "split", "pushup"} {
			b.Run(fmt.Sprintf("x%d/%s", factor, tr), func(b *testing.B) {
				plan := benchPlan(b, st, bench.Fig10Queries[queryName], tr, true)
				runTwig(b, st, plan)
			})
		}
	}
}

// BenchmarkFig16_SuffixPathScale reproduces Fig. 16: suffix path query
// QA1 across data scales.
func BenchmarkFig16_SuffixPathScale(b *testing.B) { scalability(b, "QA1") }

// BenchmarkFig17_PathScale reproduces Fig. 17: path query QA2 across
// data scales.
func BenchmarkFig17_PathScale(b *testing.B) { scalability(b, "QA2") }

// BenchmarkFig18_TwigScale reproduces Fig. 18: tree query QA3 across data
// scales.
func BenchmarkFig18_TwigScale(b *testing.B) { scalability(b, "QA3") }

// BenchmarkParallelQuery compares sequential execution (Parallelism 1,
// the paper's engine) against the GOMAXPROCS worker pool on
// multi-fragment queries — the dlabel plans carry one tag scan per query
// node plus D-joins, so both the fragment fan-out and the partitioned
// merge join engage. Warm cache: the comparison isolates CPU work, and
// both settings must produce identical result sets (start positions
// compared once per query before its sub-benchmarks run).
func BenchmarkParallelQuery(b *testing.B) {
	st := benchStore(b, "auction", 3, 0)
	for _, q := range []struct{ name, query, translator string }{
		{"QA2/dlabel", bench.Fig10Queries["QA2"], "dlabel"},
		{"QA3/dlabel", bench.Fig10Queries["QA3"], "dlabel"},
		{"QA2/split", bench.Fig10Queries["QA2"], "split"},
	} {
		plan := benchPlan(b, st, q.query, q.translator, true)
		seq, err := relengine.Execute(nil, st, planner.Fixed(plan), relengine.Options{ExecConfig: core.ExecConfig{Parallelism: 1}})
		if err != nil {
			b.Fatal(err)
		}
		par, err := relengine.Execute(nil, st, planner.Fixed(plan), relengine.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(seq.Records) == 0 {
			b.Fatalf("%s: empty result set would benchmark no join work", q.name)
		}
		if !enginetest.StartsEqual(par.Starts(), seq.Starts()) {
			b.Fatalf("%s: parallel %d results != sequential %d", q.name, len(par.Records), len(seq.Records))
		}
		for _, mode := range []struct {
			name string
			par  int
		}{
			{"seq", 1},
			{"par2", 2},
			{"parallel", 0}, // GOMAXPROCS
		} {
			b.Run(q.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := relengine.Execute(nil, st, planner.Fixed(plan), relengine.Options{ExecConfig: core.ExecConfig{Parallelism: mode.par}}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkScanOverlap measures the storage layer's scan concurrency
// directly: P workers sweep every page of the SD relation through
// File.View, checksumming page bytes in the callback. The pool is kept
// far smaller than the relation so most views miss and fetch from the
// backing store. Under the pre-PR-4 single-mutex pool, P > 1 was no
// faster than P = 1 (callbacks ran under the file lock); with the
// sharded, pinning pool the decode work and the misses overlap, so
// P = GOMAXPROCS beats P = 1 on multi-core machines (a 1-CPU container
// shows no wall-clock delta, as with BenchmarkParallelQuery). The
// checksum is partition-order independent, so every worker count must
// agree — verified once before the sub-benchmarks run.
func BenchmarkScanOverlap(b *testing.B) {
	st := benchStore(b, "auction", 3, 64)
	f := st.SD().File()
	want, err := bench.ScanOverlap(f, 1)
	if err != nil {
		b.Fatal(err)
	}
	if got, err := bench.ScanOverlap(f, runtime.GOMAXPROCS(0)); err != nil || got != want {
		b.Fatalf("parallel checksum = %d (err %v), sequential = %d", got, err, want)
	}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("P%d", workers), func(b *testing.B) {
			b.SetBytes(int64(f.NumPages()) * pager.PageSize)
			for i := 0; i < b.N; i++ {
				got, err := bench.ScanOverlap(f, workers)
				if err != nil {
					b.Fatal(err)
				}
				if got != want {
					b.Fatalf("checksum = %d, want %d", got, want)
				}
			}
		})
	}
}

// BenchmarkAblationDJoin compares the structural merge join against the
// nested-loop D-join (the paper's premise that join implementation
// matters, §1).
func BenchmarkAblationDJoin(b *testing.B) {
	st := benchStore(b, "protein", 1, 0)
	plan := benchPlan(b, st, bench.Fig10Queries["QP3"], "pushup", false)
	for _, mode := range []struct {
		name string
		opts relengine.Options
	}{
		{"merge", relengine.Options{Join: relengine.MergeJoin}},
		{"nestedloop", relengine.Options{Join: relengine.NestedLoopJoin}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := st.DropCaches(); err != nil {
					b.Fatal(err)
				}
				if _, err := relengine.Execute(nil, st, planner.Fixed(plan), mode.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationClustering compares answering a suffix path query via
// the clustered P-label selection (SP) against reading the same nodes
// through the tag-clustered SD relation — the paper's §4.2 disk-access
// argument.
func BenchmarkAblationClustering(b *testing.B) {
	st := benchStore(b, "protein", 1, 0)
	spPlan := benchPlan(b, st, bench.Fig10Queries["QP1"], "pushup", false)
	sdPlan := benchPlan(b, st, bench.Fig10Queries["QP1"], "dlabel", false)
	b.Run("plabel-clustered", func(b *testing.B) { runRelational(b, st, spPlan) })
	b.Run("tag-clustered", func(b *testing.B) { runRelational(b, st, sdPlan) })
}

// BenchmarkAblationBufferPool sweeps the buffer pool size for a fixed
// query, exposing the disk-access sensitivity of the baseline.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pool := range []int{32, 128, 512} {
		st := benchStore(b, "auction", 1, pool)
		plan := benchPlan(b, st, bench.Fig10Queries["QA2"], "dlabel", false)
		b.Run(fmt.Sprintf("pool%d", pool), func(b *testing.B) {
			runRelational(b, st, plan)
		})
	}
}

// BenchmarkAblationSelectionKind compares range (Split) against equality
// (Push-up) P-label selections for the same deep branch fragment
// (§5.2.2's Split-vs-Push-up argument).
func BenchmarkAblationSelectionKind(b *testing.B) {
	st := benchStore(b, "shakespeare", 1, 0)
	splitPlan := benchPlan(b, st, bench.Fig10Queries["QS3"], "split", false)
	pushPlan := benchPlan(b, st, bench.Fig10Queries["QS3"], "pushup", false)
	b.Run("range-split", func(b *testing.B) { runRelational(b, st, splitPlan) })
	b.Run("equality-pushup", func(b *testing.B) { runRelational(b, st, pushPlan) })
}

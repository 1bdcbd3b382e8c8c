package blas

import (
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// skewedQuery is the plan-quality workload: the val fragment holds 3
// records while item and id hold ~4000 each, the decoy value keeps the
// planner from proving the plan empty, and the scan of the tiny
// fragment filters to nothing — so greedy ordering skips both huge
// scans that fixed order pays.
const skewedQuery = `//item[id][val="` + datagen.DecoyVal + `"]`

func buildSkewed(t *testing.T) *Store {
	t.Helper()
	var buf bytes.Buffer
	if err := GenerateDataset(&buf, datagen.NameSkewed, DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(buf.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestGreedyReadsFewerPagesOnSkew is the planner's acceptance bar: on
// the skewed corpus, greedy ordering must read strictly fewer pages
// than the translator's fixed order — including the pages its own
// selectivity probes cost. The plan's order is only worth anything if
// the executor cannot start the huge scans before the tiny one has come
// back empty, so the counters must not move from one run to the next.
func TestGreedyReadsFewerPagesOnSkew(t *testing.T) {
	st := buildSkewed(t)
	run := func(noReorder bool) ExecStats {
		if err := st.DropCaches(); err != nil {
			t.Fatal(err)
		}
		res, err := st.Query(skewedQuery, QueryOptions{Translator: TranslatorPushUp, NoReorder: noReorder})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 {
			t.Fatalf("matches = %d, want 0", len(res.Matches))
		}
		return res.Stats
	}
	var fixed1, greedy1 ExecStats
	for i := range 3 {
		fixed := run(true)
		greedy := run(false)
		if greedy.PageReads >= fixed.PageReads {
			t.Errorf("run %d: greedy read %d pages, fixed %d — want strictly fewer", i, greedy.PageReads, fixed.PageReads)
		}
		if !greedy.EarlyTerminated {
			t.Errorf("run %d: greedy run did not report early termination", i)
		}
		if i == 0 {
			fixed1, greedy1 = fixed, greedy
			continue
		}
		for _, c := range []struct {
			order    string
			got, at1 ExecStats
		}{{"fixed", fixed, fixed1}, {"greedy", greedy, greedy1}} {
			if c.got.VisitedElements != c.at1.VisitedElements || c.got.PageReads != c.at1.PageReads || c.got.PageMisses != c.at1.PageMisses {
				t.Errorf("run %d %s order: visited/reads/misses = %d/%d/%d, first run %d/%d/%d — scan issue must not depend on scheduling",
					i, c.order, c.got.VisitedElements, c.got.PageReads, c.got.PageMisses,
					c.at1.VisitedElements, c.at1.PageReads, c.at1.PageMisses)
			}
		}
	}
	if m := st.Metrics(); m.EarlyTerminations == 0 {
		t.Error("StoreMetrics.EarlyTerminations = 0 after an early-terminated query")
	}
}

// TestProbeProvenEmptyReadsNothing checks the short-circuit contract:
// once a planner probe proves a plan empty, execution on either engine
// performs zero page reads.
func TestProbeProvenEmptyReadsNothing(t *testing.T) {
	st := buildSkewed(t)
	res, err := st.Query(`//hot/item[val]`, QueryOptions{Translator: TranslatorPushUp})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 0 || !res.Stats.EarlyTerminated {
		t.Fatalf("matches=%d early=%v, want empty early-terminated result", len(res.Matches), res.Stats.EarlyTerminated)
	}

	// Engine-level: plan with one context, execute with a fresh one, so
	// the execution side's page reads are observable in isolation.
	inner := st.inner
	tr, err := translate.ByName("pushup")
	if err != nil {
		t.Fatal(err)
	}
	lp, err := tr(translate.Context{Scheme: inner.Scheme(), Schema: inner.Schema()}, xpath.MustParse(`//hot/item[val]`))
	if err != nil {
		t.Fatal(err)
	}
	phys, err := planner.Plan(relstore.NewExecContext(), inner, lp, planner.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !phys.ProbedEmpty() {
		t.Fatalf("plan not probe-proven empty: %s", phys)
	}
	rctx := relstore.NewExecContext()
	rres, err := relengine.Execute(rctx, inner, phys, relengine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rres.Records) != 0 || !rres.EarlyTerminated || rctx.PageReads() != 0 {
		t.Errorf("relational: records=%d early=%v reads=%d, want 0/true/0",
			len(rres.Records), rres.EarlyTerminated, rctx.PageReads())
	}
	tctx := relstore.NewExecContext()
	tres, err := twig.Execute(tctx, inner, phys, core.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tres.Records) != 0 || !tres.EarlyTerminated || tctx.PageReads() != 0 {
		t.Errorf("twig: records=%d early=%v reads=%d, want 0/true/0",
			len(tres.Records), tres.EarlyTerminated, tctx.PageReads())
	}
}

// TestOrderSpanMicrosecondRange bounds planning overhead: with a warm
// cache the selectivity probes are a handful of buffer pool hits, so
// the best-of-N order phase span must sit well under a millisecond.
func TestOrderSpanMicrosecondRange(t *testing.T) {
	st := buildSkewed(t)
	best := time.Duration(1 << 62)
	for i := 0; i < 10; i++ {
		res, err := st.Query(skewedQuery, QueryOptions{Translator: TranslatorPushUp, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.Phases == nil {
			t.Fatal("trace produced no phase breakdown")
		}
		if d := res.Stats.Phases.Order; d > 0 && d < best {
			best = d
		}
	}
	if best >= time.Millisecond {
		t.Errorf("best order span = %v, want microsecond-range (< 1ms)", best)
	}
}

// TestExplainShowsOrder: Explain must render the chosen order with
// per-fragment estimates, and honor NoReorder.
func TestExplainShowsOrder(t *testing.T) {
	st := buildSkewed(t)
	ex, err := st.Explain(skewedQuery, QueryOptions{Translator: TranslatorPushUp})
	if err != nil {
		t.Fatal(err)
	}
	if !ex.Reordered {
		t.Error("Reordered = false, want greedy ordering")
	}
	for _, want := range []string{"order[greedy]", "scan F2 (est ", "join F0 contains F2"} {
		if !strings.Contains(ex.OrderText, want) {
			t.Errorf("OrderText = %q, missing %q", ex.OrderText, want)
		}
	}
	fx, err := st.Explain(skewedQuery, QueryOptions{Translator: TranslatorPushUp, NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if fx.Reordered || !strings.Contains(fx.OrderText, "order[fixed]") {
		t.Errorf("NoReorder explain: Reordered=%v OrderText=%q", fx.Reordered, fx.OrderText)
	}
}

// TestWildcardEstimateCountsElements: a wildcard fragment reads SD's
// element-tag runs only, so the planner estimates it by the element
// records (the sum of the per-tag estimates), not by every SD record:
// auction carries about a fifth of its records as attributes. The
// records the fragment decodes are the visited elements of dlabel's
// //*, one wildcard fragment on the same runs; the estimate must lie
// within the tag estimate's interpolation error (below 10 %) of them.
func TestWildcardEstimateCountsElements(t *testing.T) {
	var doc strings.Builder
	if err := GenerateDataset(&doc, datagen.NameAuction, DatasetOptions{Seed: 2, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc.String(), Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	all, err := st.Query("//*", QueryOptions{Translator: TranslatorDLabel, Engine: EngineRelational})
	if err != nil {
		t.Fatal(err)
	}
	decoded := all.Stats.VisitedElements
	ex, err := st.Explain("/site/*/person/name", QueryOptions{Translator: TranslatorDLabel})
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`scan F1 \(est (\d+)\)`).FindStringSubmatch(ex.OrderText)
	if m == nil {
		t.Fatalf("no estimate for the wildcard fragment F1 in\n%s%s", ex.PlanText, ex.OrderText)
	}
	est, err := strconv.ParseUint(m[1], 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	if diff := max(est, decoded) - min(est, decoded); diff*10 > decoded {
		t.Errorf("wildcard fragment estimated at %d records, decodes %d (SD holds %d with attributes)",
			est, decoded, st.inner.SD().Count())
	}
}

// TestPreparedQueryCarriesPhysicalPlan: Prepare bakes the ordering in
// (the blasd plan cache therefore caches ordered physical plans), and
// repeated executions agree with direct queries.
func TestPreparedQueryCarriesPhysicalPlan(t *testing.T) {
	st := buildSkewed(t)
	pq, err := st.Prepare(skewedQuery, QueryOptions{Translator: TranslatorPushUp})
	if err != nil {
		t.Fatal(err)
	}
	if !pq.phys.Reordered {
		t.Error("prepared plan was not greedily ordered")
	}
	for _, eng := range []Engine{EngineRelational, EngineTwig} {
		res, err := pq.Query(QueryOptions{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) != 0 || res.Stats.PlanElapsed != 0 {
			t.Errorf("%s: matches=%d planElapsed=%v", eng, len(res.Matches), res.Stats.PlanElapsed)
		}
	}
	fq, err := st.Prepare(skewedQuery, QueryOptions{Translator: TranslatorPushUp, NoReorder: true})
	if err != nil {
		t.Fatal(err)
	}
	if fq.phys.Reordered {
		t.Error("NoReorder prepared plan was reordered")
	}
}

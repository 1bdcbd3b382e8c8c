package relstore_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// TestCursorBuffersPerRun pins the pooled memory of both engines: a
// fragment cursor of k cluster runs holds one buffer per run and gives
// each back once. From an empty pool, the pool allocates only when it
// has no buffer, so after a query it holds exactly the buffers the
// query held at its peak.
//   - A lone k-run fragment (QA2's and Q6's P-label range under pushup,
//     six runs) takes k buffers on either engine, warm or cold.
//   - The relational engine drains one fragment at a time, so a plan
//     holds its largest fragment's runs at once: one buffer for a plan
//     of single-run fragments (dlabel), k for QA2's whole plan.
//   - The twig sweep opens every cursor at its first step, so a plan
//     holds all its runs at once.
func TestCursorBuffersPerRun(t *testing.T) {
	st, err := core.BuildFromTree(datagen.Auction(datagen.Options{Seed: 1, Factor: 1}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tctx := translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
	plan := func(query string, tr translate.Translator) *translate.Plan {
		t.Helper()
		p, err := tr(tctx, xpath.MustParse(query))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	// runs returns the number of cluster runs of each fragment of p.
	runs := func(p *translate.Plan) []int {
		t.Helper()
		out := make([]int, len(p.Fragments))
		for i, f := range p.Fragments {
			c, err := st.Select(f).Open(nil)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = relstore.CursorRuns(c)
		}
		return out
	}
	// held runs p on one engine from an empty pool and returns the
	// buffers the pool then holds.
	held := func(p *translate.Plan, useTwig, cold bool) int {
		t.Helper()
		relstore.EmptyBatchPool()
		for pass := 0; pass < 2; pass++ { // the second pass reuses the buffers
			if cold {
				if err := st.DropCaches(); err != nil {
					t.Fatal(err)
				}
			}
			var res *core.Result
			var err error
			if useTwig {
				res, err = twig.Execute(nil, st, planner.Fixed(p), core.ExecConfig{})
			} else {
				res, err = relengine.Execute(nil, st, planner.Fixed(p), relengine.Options{})
			}
			if err != nil || len(res.Records) == 0 {
				t.Fatalf("%s: %d matches, err %v", p.Source, len(res.Records), err)
			}
		}
		return relstore.IdleBatches()
	}
	engines := []struct {
		name string
		twig bool
	}{{"relational", false}, {"twig", true}}

	for _, name := range []string{"QA2", "Q6"} {
		query := bench.Fig10Queries[name]
		if query == "" {
			query = bench.Fig15Queries[name]
		}
		whole := plan(query, translate.PushUp)
		k := runs(whole)
		last := len(whole.Fragments) - 1
		if k[last] != 6 {
			t.Fatalf("%s: the range fragment has %d runs, want the six regions", name, k[last])
		}
		f := *whole.Fragments[last]
		f.ID = 0
		lone := &translate.Plan{Translator: whole.Translator, Source: whole.Source, Fragments: []*translate.Fragment{&f}}
		for _, e := range engines {
			for _, cold := range []bool{false, true} {
				if got := held(lone, e.twig, cold); got != 6 {
					t.Errorf("%s range fragment on %s (cold %v): %d buffers at the peak, want one per run (6)", name, e.name, cold, got)
				}
			}
		}
	}

	qa2 := plan(bench.Fig10Queries["QA2"], translate.PushUp)
	if got := held(qa2, false, false); got != 6 {
		t.Errorf("QA2 pushup on relational: %d buffers at the peak, want its range fragment's 6", got)
	}
	if got, want := held(qa2, true, false), sum(runs(qa2)); got != want {
		t.Errorf("QA2 pushup on twig: %d buffers at the peak, want every run of the plan (%d)", got, want)
	}
	single := plan("/site/people/person/name", translate.Baseline)
	if k := runs(single); len(k) != 4 || sum(k) != 4 {
		t.Fatalf("dlabel plan has runs %v, want four single-run fragments", k)
	}
	if got := held(single, false, false); got != 1 {
		t.Errorf("dlabel plan of single-run fragments on relational: %d buffers at the peak, want 1", got)
	}
	if got := held(single, true, false); got != 4 {
		t.Errorf("dlabel plan of single-run fragments on twig: %d buffers at the peak, want 4", got)
	}
}

func sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

package blas

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/enginetest"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// paperQueries returns the integration corpus: every Fig. 10 and Fig. 15
// query plus the paper's running example Q (Fig. 2), by data set.
func paperQueries(t *testing.T) map[string][]string {
	t.Helper()
	byDataset := map[string][]string{}
	for qn, q := range bench.Fig10Queries {
		ds, err := bench.DatasetOf(qn)
		if err != nil {
			t.Fatal(err)
		}
		byDataset[ds] = append(byDataset[ds], q)
	}
	for _, q := range bench.Fig15Queries {
		byDataset["auction"] = append(byDataset["auction"], q)
	}
	byDataset["protein"] = append(byDataset["protein"],
		`/ProteinDatabase/ProteinEntry[protein//superfamily="cytochrome c"]/reference/refinfo[//author="Evans, M.J." and year="2001"]/title`)
	return byDataset
}

// TestPaperQueriesEndToEnd is the repository's strongest guarantee: on
// each of the three paper data sets (Fig. 12 scale), every Fig. 10 and
// Fig. 15 query must return exactly the node set the naive reference
// evaluator computes — under all four translators, on both engines.
func TestPaperQueriesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three paper-scale stores")
	}
	queriesByDataset := paperQueries(t)

	for _, ds := range datagen.Names() {
		tree, err := datagen.ByName(ds, datagen.Options{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
		for _, query := range queriesByDataset[ds] {
			want, err := enginetest.EvalStarts(tree, query)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Errorf("%s: %s returns nothing — benchmark would measure empty work", ds, query)
				continue
			}
			parsed := xpath.MustParse(query)
			for _, trName := range []string{"dlabel", "split", "pushup", "unfold"} {
				tr, _ := translate.ByName(trName)
				plan, err := tr(ctx, parsed)
				if err != nil {
					t.Fatalf("%s/%s: %v", query, trName, err)
				}
				rres, err := relengine.Execute(nil, st, planner.Fixed(plan), relengine.Options{})
				if err != nil {
					t.Fatalf("%s/%s relational: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(rres.Starts(), want) {
					t.Errorf("%s [%s, relational]: %d results, want %d", query, trName, len(rres.Starts()), len(want))
				}
				tres, err := twig.Execute(nil, st, planner.Fixed(plan), core.ExecConfig{Parallelism: 1})
				if err != nil {
					t.Fatalf("%s/%s twig: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(tres.Starts(), want) {
					t.Errorf("%s [%s, twig]: %d results, want %d", query, trName, len(tres.Starts()), len(want))
				}
				// Parallelism must not change the twig result on the whole
				// paper corpus.
				pres, err := twig.Execute(nil, st, planner.Fixed(plan), core.ExecConfig{Parallelism: 4})
				if err != nil {
					t.Fatalf("%s/%s twig P=4: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(pres.Starts(), tres.Starts()) {
					t.Errorf("%s [%s, twig P=4]: %d results, sequential sweep %d",
						query, trName, len(pres.Starts()), len(tres.Starts()))
				}
				// Greedy selectivity ordering must not change a single
				// result: re-plan with probes and repeat every mode.
				phys, err := planner.Plan(relstore.NewExecContext(), st, plan, planner.Options{})
				if err != nil {
					t.Fatalf("%s/%s plan: %v", query, trName, err)
				}
				for _, par := range []int{1, 4} {
					gr, err := relengine.Execute(nil, st, phys, relengine.Options{ExecConfig: core.ExecConfig{Parallelism: par}})
					if err != nil {
						t.Fatalf("%s/%s relational greedy P=%d: %v", query, trName, par, err)
					}
					if !enginetest.StartsEqual(gr.Starts(), want) {
						t.Errorf("%s [%s, relational greedy P=%d]: %d results, want %d",
							query, trName, par, len(gr.Starts()), len(want))
					}
					gt, err := twig.Execute(nil, st, phys, core.ExecConfig{Parallelism: par})
					if err != nil {
						t.Fatalf("%s/%s twig greedy P=%d: %v", query, trName, par, err)
					}
					if !enginetest.StartsEqual(gt.Starts(), want) {
						t.Errorf("%s [%s, twig greedy P=%d]: %d results, want %d",
							query, trName, par, len(gt.Starts()), len(want))
					}
				}
			}
		}
		st.Close()
	}
}

// TestScalingIsLinearInResults sanity-checks the Fig. 16 premise: for the
// suffix path query QA1, the split translator's visited elements grow
// with the factor while remaining equal to the result count (selection
// only, no join inputs).
func TestScalingIsLinearInResults(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two auction stores")
	}
	visited := map[int]uint64{}
	results := map[int]int{}
	for _, factor := range []int{1, 2} {
		tree, err := datagen.ByName("auction", datagen.Options{Seed: 1, Factor: factor})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		tr, _ := translate.ByName("split")
		plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()},
			xpath.MustParse(bench.Fig10Queries["QA1"]))
		if err != nil {
			t.Fatal(err)
		}
		ctx := relstore.NewExecContext()
		res, err := relengine.Execute(ctx, st, planner.Fixed(plan), relengine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		visited[factor] = ctx.Visited()
		results[factor] = len(res.Records)
		st.Close()
	}
	for _, f := range []int{1, 2} {
		if visited[f] != uint64(results[f]) {
			t.Errorf("factor %d: visited %d != results %d (suffix path should read only matches)", f, visited[f], results[f])
		}
	}
	if results[2] < results[1]*3/2 {
		t.Errorf("results did not scale: %d -> %d", results[1], results[2])
	}
}

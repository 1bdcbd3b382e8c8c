package blas

import (
	"math"
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
	"repro/internal/xmltree"
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

// runStarts runs phys on the twig or the relational engine in an arena
// of its own, and returns the answer's starts, read before the arena is
// released.
func runStarts(ctx *relstore.ExecContext, st *core.Store, phys *planner.Physical, twigEngine bool) ([]uint32, error) {
	a := core.NewArena()
	defer a.Release()
	var res *core.Result
	var err error
	if twigEngine {
		res, err = twig.Run(ctx, a, st, phys)
	} else {
		res, err = relengine.Run(ctx, a, st, phys)
	}
	if err != nil {
		return nil, err
	}
	return res.Starts(), nil
}

// TestPaperQueriesEndToEnd is the repository's strongest guarantee: on
// each of the three paper data sets (Fig. 12 scale), every Fig. 10 and
// Fig. 15 query must return exactly the node set the naive reference
// evaluator computes — under all four translators, on both engines.
// It also checks the paper's ordering of the translators (§4, Figs.
// 13-18): with the translator's fixed plan, D-joins and visited
// elements are non-increasing from dlabel to split to pushup to unfold,
// on both engines.
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
			// The previous translator's joins and visited elements on the
			// relational and twig engines; the first has no bound.
			prev, prevName := [3]uint64{math.MaxUint64, math.MaxUint64, math.MaxUint64}, ""
			for _, trName := range []string{"dlabel", "split", "pushup", "unfold"} {
				tr, _ := translate.ByName(trName)
				plan, err := tr(ctx, parsed)
				if err != nil {
					t.Fatalf("%s/%s: %v", query, trName, err)
				}
				rctx := relstore.NewExecContext()
				rres, err := runStarts(rctx, st, planner.Fixed(plan), false)
				if err != nil {
					t.Fatalf("%s/%s relational: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(rres, want) {
					t.Errorf("%s [%s, relational]: %d results, want %d", query, trName, len(rres), len(want))
				}
				tctx := relstore.NewExecContext()
				tres, err := runStarts(tctx, st, planner.Fixed(plan), true)
				if err != nil {
					t.Fatalf("%s/%s twig: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(tres, want) {
					t.Errorf("%s [%s, twig]: %d results, want %d", query, trName, len(tres), len(want))
				}
				cur := [3]uint64{uint64(plan.NumJoins()), rctx.Visited(), tctx.Visited()}
				for i, what := range []string{"D-joins", "relational visited elements", "twig visited elements"} {
					if cur[i] > prev[i] {
						t.Errorf("%s: %s %d under %s > %d under %s — the paper's translator order is broken",
							query, what, cur[i], trName, prev[i], prevName)
					}
				}
				prev, prevName = cur, trName
				// Greedy selectivity ordering must not change a single
				// result: re-plan with probes and repeat on both engines.
				phys, err := planner.Plan(relstore.NewExecContext(), st, plan, planner.Options{})
				if err != nil {
					t.Fatalf("%s/%s plan: %v", query, trName, err)
				}
				gr, err := runStarts(nil, st, phys, false)
				if err != nil {
					t.Fatalf("%s/%s relational greedy: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(gr, want) {
					t.Errorf("%s [%s, relational greedy]: %d results, want %d",
						query, trName, len(gr), len(want))
				}
				gt, err := runStarts(nil, st, phys, true)
				if err != nil {
					t.Fatalf("%s/%s twig greedy: %v", query, trName, err)
				}
				if !enginetest.StartsEqual(gt, want) {
					t.Errorf("%s [%s, twig greedy]: %d results, want %d",
						query, trName, len(gt), len(want))
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

// TestWildcardMatchesElementsOnly: XPath's * selects elements, never
// attributes. Every translator on both engines must agree with the
// reference evaluator on wildcard steps over a document with
// attributes — unfold (and so auto) expands * over the schema graph,
// whose edges include attribute tags, and the other translators read
// SD's element-tag runs.
func TestWildcardMatchesElementsOnly(t *testing.T) {
	const doc = `<a id="1"><b id="2"><c/></b><b/></a>`
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, q := range []string{"/a/*", "/a/b/*", "//b/*", "//*", "/a//*"} {
		want, err := enginetest.EvalStarts(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s has no answers; the case would check nothing", q)
		}
		for _, tr := range []Translator{TranslatorAuto, TranslatorDLabel, TranslatorSplit, TranslatorPushUp, TranslatorUnfold} {
			for _, eng := range []Engine{EngineRelational, EngineTwig} {
				res, err := st.Query(q, QueryOptions{Translator: tr, Engine: eng})
				if err != nil {
					t.Fatalf("%s [%s, %s]: %v", q, tr, eng, err)
				}
				got := make([]uint32, len(res.Matches))
				for i, m := range res.Matches {
					got[i] = m.Start
				}
				if !enginetest.StartsEqual(got, want) {
					t.Errorf("%s [%s, %s] = %s, want %s", q, tr, eng, enginetest.FormatStarts(got), enginetest.FormatStarts(want))
				}
			}
		}
	}
}

package blas

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
)

// TestQueryAllocBudget bounds the bytes one warm query allocates by what
// it reads and returns: a·VisitedElements + b·len(Matches) + c. Both
// engines bind narrow and materialize late — a non-return binding or
// path level is a 12-byte span, joins carry int32 ids, and the return
// column is copied once, by finalize, from the arena the engine left it
// in — and every binding, solution and join-row chunk comes from the
// query's pooled core.Arena, so a warm query allocates no chunk at all.
// What is left per visited element is the value bytes the decoder
// builds, and per match the answer itself. An engine that takes chunks
// from the garbage collector instead of the arena, copies bindings into
// join intermediates or the return column into a second result, or
// keys a hash map per path solution exceeds the budget. The Q1 rows are
// single-fragment plans, where visited elements equal matches. Batch
// buffers come from relstore's pool and cost a warm query nothing, so
// the fixed term covers parse, plan and headers only: an engine that
// allocates a batch buffer per stream (95 KiB each) exceeds it. The
// keyword rows are one P-label range fragment that resolves to 34 runs
// of a few records each, so a merge that allocates a buffer per run
// rather than taking it from the pool exceeds theirs.
//
// The twig engine's return column holds one record per path solution,
// not per match, and it too comes from the arena: on every query both
// engines run, the twig engine allocates at most twigOverRel times what
// the relational engine does.
func TestQueryAllocBudget(t *testing.T) {
	const (
		perVisited  = 16   // a: bytes per visited element (value bytes)
		perMatch    = 336  // b: bytes per match (its Match, path and value)
		fixed       = 32e3 // c: parse, plan, stream and arena headers
		twigOverRel = 1.15
		runs        = 5
	)
	var doc strings.Builder
	if err := GenerateDataset(&doc, datagen.NameAuction, DatasetOptions{Seed: 1, Factor: 2}); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc.String(), Options{Dir: t.TempDir(), PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	cases := []struct {
		name  string
		query string
		opts  QueryOptions
	}{
		{"Q1/relational", bench.Fig15Queries["Q1"], QueryOptions{Engine: EngineRelational}},
		{"Q1/twig", bench.Fig15Queries["Q1"], QueryOptions{Engine: EngineTwig}},
		{"Q4/relational", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineRelational}},
		{"Q4/twig", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineTwig}},
		{"V3/relational", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineRelational}},
		{"V3/twig", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineTwig}},
		{"QA1/relational/dlabel", bench.Fig10Queries["QA1"], QueryOptions{Engine: EngineRelational, Translator: TranslatorDLabel}},
		{"QA3/twig", bench.Fig10Queries["QA3"], QueryOptions{Engine: EngineTwig}},
		{"keyword/relational", "//keyword", QueryOptions{Engine: EngineRelational}},
		{"keyword/twig", "//keyword", QueryOptions{Engine: EngineTwig}},
	}
	perQuery := map[string]float64{}
	for _, c := range cases {
		warm, err := st.Query(c.query, c.opts) // warms the pool and the name caches
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := st.Query(c.query, c.opts); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / runs
		perQuery[c.name] = got
		budget := perVisited*float64(warm.Stats.VisitedElements) + perMatch*float64(len(warm.Matches)) + fixed
		t.Logf("%s: %.1f KiB/query, budget %.1f KiB (%d visited, %d matches)",
			c.name, got/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		if got > budget {
			t.Errorf("%s allocates %.1f KiB per query, budget %.1f KiB for %d visited elements and %d matches",
				c.name, got/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		}
	}
	for name, twig := range perQuery {
		q, ok := strings.CutSuffix(name, "/twig")
		rel, paired := perQuery[q+"/relational"]
		if ok && paired && twig > twigOverRel*rel {
			t.Errorf("%s: the twig engine allocates %.1f KiB per query, the relational %.1f KiB: more than %.2f times",
				q, twig/1024, rel/1024, twigOverRel)
		}
	}
}

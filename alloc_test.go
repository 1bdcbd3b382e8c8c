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
// in — so a query costs at most about one record per visited element
// (the return fragment's scan bindings, the twig return column) plus
// its output. An engine that binds full records where a span does,
// copies bindings into join intermediates or the return column into a
// second result, regrows its scan results or keys a hash map per path
// solution exceeds the budget. The Q1 rows are single-fragment plans,
// where visited elements equal matches and only a second copy of the
// return column could be saved. Batch buffers come from relstore's pool and cost a warm query nothing, so
// the fixed term covers parse, plan and headers only: an engine that
// allocates a batch buffer per stream (95 KiB each) exceeds it. The
// keyword rows are one P-label range fragment that resolves to 34 runs
// of a few records each, so a merge that allocates a buffer per run
// rather than taking it from the pool exceeds theirs.
func TestQueryAllocBudget(t *testing.T) {
	const (
		perVisited = 48   // a: bytes per visited element (a 12-byte span or, for return bindings, a 48-byte record)
		perMatch   = 336  // b: bytes per match (its Match, path and value)
		fixed      = 32e3 // c: parse, plan, stream and arena headers
		runs       = 5
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
		perQuery := float64(after.TotalAlloc-before.TotalAlloc) / runs
		budget := perVisited*float64(warm.Stats.VisitedElements) + perMatch*float64(len(warm.Matches)) + fixed
		t.Logf("%s: %.1f KiB/query, budget %.1f KiB (%d visited, %d matches)",
			c.name, perQuery/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		if perQuery > budget {
			t.Errorf("%s allocates %.1f KiB per query, budget %.1f KiB for %d visited elements and %d matches",
				c.name, perQuery/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		}
	}
}

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
// engines materialize late — scans append into chunked arenas, joins
// carry int32 ids, the return column is copied once — so a query costs
// about one record copy per visited element plus its output. An engine
// that copies records into join intermediates, regrows its scan
// results or keys a hash map per path solution exceeds the budget.
func TestQueryAllocBudget(t *testing.T) {
	const (
		perVisited = 64   // a: bytes per visited element (one 48-byte record plus slack)
		perMatch   = 384  // b: bytes per match (the record, its Match, path and value)
		fixed      = 96e3 // c: parse, plan, batch buffers, stream and arena headers
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
		{"Q4/relational", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineRelational}},
		{"Q4/twig", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineTwig}},
		{"V3/relational", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineRelational}},
		{"V3/twig", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineTwig}},
		{"QA1/relational/dlabel", bench.Fig10Queries["QA1"], QueryOptions{Engine: EngineRelational, Translator: TranslatorDLabel}},
	}
	for _, c := range cases {
		c.opts.Parallelism = 1
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

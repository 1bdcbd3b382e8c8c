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
// results or keys a hash map per path solution exceeds the budget. The
// P = 2 twig rows add d per sweep partition, for its streams' batch
// buffers, stacks and solution arenas, and the collected root stream.
func TestQueryAllocBudget(t *testing.T) {
	const (
		perVisited = 64    // a: bytes per visited element (one 48-byte record plus slack)
		perMatch   = 384   // b: bytes per match (the record, its Match, path and value)
		fixed      = 96e3  // c: parse, plan, batch buffers, stream and arena headers
		perPart    = 256e3 // d: bytes per sweep partition at P > 1
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
		par   int
	}{
		{"Q4/relational", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineRelational}, 1},
		{"Q4/twig", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineTwig}, 1},
		{"V3/relational", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineRelational}, 1},
		{"V3/twig", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineTwig}, 1},
		{"QA1/relational/dlabel", bench.Fig10Queries["QA1"], QueryOptions{Engine: EngineRelational, Translator: TranslatorDLabel}, 1},
		{"Q4/twig/P2", bench.Fig15Queries["Q4"], QueryOptions{Engine: EngineTwig}, 2},
		{"V3/twig/P2", `/site/people/person[name="Elena Haddad"]/emailaddress`, QueryOptions{Engine: EngineTwig}, 2},
		{"QA3/twig/P2", bench.Fig10Queries["QA3"], QueryOptions{Engine: EngineTwig}, 2},
	}
	for _, c := range cases {
		c.opts.Parallelism = c.par
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
		if c.par > 1 {
			budget += perPart * float64(c.par)
		}
		t.Logf("%s: %.1f KiB/query, budget %.1f KiB (%d visited, %d matches)",
			c.name, perQuery/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		if perQuery > budget {
			t.Errorf("%s allocates %.1f KiB per query, budget %.1f KiB for %d visited elements and %d matches",
				c.name, perQuery/1024, budget/1024, warm.Stats.VisitedElements, len(warm.Matches))
		}
	}
}

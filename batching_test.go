// Batching contract tests: a stream reads one heap page's share of its
// selection per batch, so a query's page reads are a function of its
// plan and the data, never of buffer-pool state; and traced queries
// account their decode work.
package blas

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
)

// TestPageReadsIndependentOfPool pins ExecStats.PageReads — the paper's
// disk-access count — to the plan: the same query on the same store
// issues the same pool requests whether every page misses (a default
// pool emptied before each query) or every page hits (a pool that holds
// the whole store, warmed once), on both engines, and visits the same
// elements.
func TestPageReadsIndependentOfPool(t *testing.T) {
	var doc strings.Builder
	if err := GenerateDataset(&doc, datagen.NameAuction, DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st, err := BuildFromString(doc.String(), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	var storePages int
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		fi, err := os.Stat(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		storePages += int(fi.Size()/8192) + 1
	}
	cold, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	warm, err := Open(Options{Dir: dir, PoolPages: storePages})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	queries := []string{
		"/site/regions/asia/item[shipping]/description",
		"//person[profile/interest]/name",
		"/site//description//keyword",
		"//open_auction[bidder/increase]/current",
		"/site/people/person[address/city]/emailaddress",
		"//closed_auction[annotation//keyword]/price",
		"/site/regions//item[payment]/location",
	}
	for _, qn := range bench.QueryOrder(bench.Fig15Queries) {
		queries = append(queries, bench.Fig15Queries[qn])
	}
	engines := []Engine{EngineRelational, EngineTwig}
	for _, q := range queries {
		for _, eng := range engines {
			if _, err := warm.Query(q, QueryOptions{Engine: eng}); err != nil {
				t.Fatalf("warming %s [%s]: %v", q, eng, err)
			}
		}
	}
	for _, eng := range engines {
		opts := QueryOptions{Engine: eng}
		for _, q := range queries {
			if err := cold.DropCaches(); err != nil {
				t.Fatal(err)
			}
			c, err := cold.Query(q, opts)
			if err != nil {
				t.Fatalf("%s [%s] cold: %v", q, eng, err)
			}
			w, err := warm.Query(q, opts)
			if err != nil {
				t.Fatalf("%s [%s] warm: %v", q, eng, err)
			}
			if len(c.Matches) == 0 {
				t.Fatalf("%s [%s]: empty result makes the comparison vacuous", q, eng)
			}
			if c.Stats.PageMisses == 0 || w.Stats.PageMisses != 0 {
				t.Fatalf("%s [%s]: %d cold / %d warm misses, want some / none", q, eng, c.Stats.PageMisses, w.Stats.PageMisses)
			}
			if c.Stats.PageReads != w.Stats.PageReads || c.Stats.VisitedElements != w.Stats.VisitedElements {
				t.Errorf("%s [%s]: %d page reads, %d visited cold; %d, %d warm", q, eng,
					c.Stats.PageReads, c.Stats.VisitedElements, w.Stats.PageReads, w.Stats.VisitedElements)
			}
		}
	}
}

// TestTraceDecodeAccounting: on a columnar store every traced query that
// returns matches decoded records through the batch layer, and the
// decode record count is consistent with the visited-elements stat.
func TestTraceDecodeAccounting(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, engine := range []Engine{EngineRelational, EngineTwig} {
		res, err := st.Query("/db/entry/protein/name", QueryOptions{Engine: engine, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		ph := res.Stats.Phases
		if ph == nil {
			t.Fatal("Trace requested but Phases is nil")
		}
		if ph.DecodedRecords == 0 {
			t.Errorf("%s: matches returned but DecodedRecords = 0", engine)
		}
		if ph.DecodedRecords > res.Stats.VisitedElements {
			t.Errorf("%s: decoded %d > visited %d: decode accounting bled",
				engine, ph.DecodedRecords, res.Stats.VisitedElements)
		}
	}
}

// Finalize contract tests: Store.matches names every result node through
// the store's label intern table (core.Store.Names) instead of decoding
// each match's P-label. These tests pin that the answer is the per-match
// decode's, that the work is O(distinct labels), and that first use of
// the table is safe under concurrent queries (run under -race in CI).
package blas

import (
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/twig"
	"repro/internal/uint128"
)

// referenceMatches is the per-match finalize the intern table replaced:
// tag name and Scheme.DecodePath for every record. It is the oracle for
// Tag, Path and Value.
func referenceMatches(st *core.Store, recs []relstore.Record) []Match {
	out := make([]Match, len(recs))
	for i, r := range recs {
		m := Match{Start: r.Start, End: r.End, Level: r.Level, Value: r.Data}
		if tag, ok := st.TagName(r.TagID); ok {
			m.Tag = tag
		}
		if path, err := st.Scheme().DecodePath(r.PLabel); err == nil {
			m.Path = "/" + strings.Join(path, "/")
		}
		out[i] = m
	}
	return out
}

// engineRecords runs query on st's engine directly, returning the raw
// result records Store.Query would finalize.
func engineRecords(t *testing.T, st *Store, query string, opts QueryOptions) []relstore.Record {
	t.Helper()
	phys, err := st.plan(relstore.NewExecContext(), query, opts, nil)
	if err != nil {
		t.Fatalf("%s: plan: %v", query, err)
	}
	return executeRecords(t, st, phys, opts)
}

func executeRecords(t *testing.T, st *Store, phys *planner.Physical, opts QueryOptions) []relstore.Record {
	t.Helper()
	a := core.NewArena()
	defer a.Release()
	var res *core.Result
	var err error
	if engineOf(opts) == EngineTwig {
		res, err = twig.Run(nil, a, st.inner, phys)
	} else {
		res, err = relengine.Run(nil, a, st.inner, phys)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.Return.Records()
}

func buildDataset(t *testing.T, dataset string) *Store {
	t.Helper()
	var doc strings.Builder
	if err := GenerateDataset(&doc, dataset, DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st
}

// TestFinalizeMatchesPerMatchReference: on the integration corpus, under
// the BLAS and the D-labeling translator, on both engines, every Match
// that Store.Query returns equals the per-match decode of the engine's
// record — Tag, Path, Value and D-label alike.
func TestFinalizeMatchesPerMatchReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three paper-scale stores")
	}
	queries := paperQueries(t)
	for _, ds := range datagen.Names() {
		st := buildDataset(t, ds)
		for _, query := range queries[ds] {
			for _, tr := range []Translator{TranslatorAuto, TranslatorDLabel} {
				for _, eng := range []Engine{EngineRelational, EngineTwig} {
					opts := QueryOptions{Translator: tr, Engine: eng}
					res, err := st.Query(query, opts)
					if err != nil {
						t.Fatalf("%s [%s/%s]: %v", query, tr, eng, err)
					}
					if len(res.Matches) == 0 {
						t.Fatalf("%s [%s/%s]: empty result would make the comparison vacuous", query, tr, eng)
					}
					want := referenceMatches(st.inner, engineRecords(t, st, query, opts))
					if !reflect.DeepEqual(res.Matches, want) {
						t.Errorf("%s [%s/%s]: %d matches differ from the per-match decode of %d records",
							query, tr, eng, len(res.Matches), len(want))
					}
				}
			}
		}
	}
}

// distinctLabels counts the P-labels among recs.
func distinctLabels(recs []relstore.Record) int {
	seen := map[uint128.Uint128]bool{}
	for _, r := range recs {
		seen[r.PLabel] = true
	}
	return len(seen)
}

// TestFinalizeAllocations is the allocation guard of the finalize loop:
// the first finalize of N matches over k labels allocates O(k) — the
// label decodes — and every later one over the same labels allocates
// exactly the []Match; all matches of a label share one path string.
func TestFinalizeAllocations(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	recs := engineRecords(t, st, "//*", QueryOptions{Translator: TranslatorDLabel})
	n, k := len(recs), distinctLabels(recs)
	arena := core.NewTuples[relstore.Record](core.NewArena(), 1)
	arena.Extend(recs)
	view := core.DocOrder(arena, nil)
	if n < 3000 || k < 5 || k > 50 {
		t.Fatalf("fixture drifted: %d records over %d labels, want thousands over a handful", n, k)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cold := st.matches(view)
	runtime.ReadMemStats(&after)
	if coldAllocs := after.Mallocs - before.Mallocs; coldAllocs > uint64(40*k+8) {
		t.Errorf("first finalize of %d matches over %d labels allocated %d times, want O(labels)", n, k, coldAllocs)
	}
	if want := referenceMatches(st.inner, recs); !reflect.DeepEqual(cold, want) {
		t.Fatal("interned finalize differs from the per-match decode")
	}

	var warm []Match
	if allocs := testing.AllocsPerRun(20, func() { warm = st.matches(view) }); allocs != 1 {
		t.Errorf("warm finalize allocated %.1f times, want 1 (the []Match)", allocs)
	}
	paths := map[string]*byte{}
	for _, ms := range [][]Match{cold, warm} {
		for _, m := range ms {
			p := unsafe.StringData(m.Path)
			if first, ok := paths[m.Path]; ok && first != p {
				t.Fatalf("path %s is held in two separate strings — not interned", m.Path)
			}
			paths[m.Path] = p
		}
	}
	if len(paths) != k {
		t.Errorf("%d distinct paths for %d distinct labels", len(paths), k)
	}
}

// TestConcurrencyNameTableFirstUse hammers the lazily filled intern
// table: on a fresh store (empty table), goroutines released together
// run overlapping Query and PreparedQuery.Query calls, so first use of
// most labels is contended. Every result must equal the sequential
// answer of a twin store, and afterwards each path must be held in
// exactly one string across all goroutines' results — a lost first-use
// race adopts the winner's entry. Meant for -race.
func TestConcurrencyNameTableFirstUse(t *testing.T) {
	doc := concurrencyDoc()
	twin, err := BuildFromString(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	queries := append([]string{"//*"}, concurrencyWorkload...)
	engines := []Engine{EngineRelational, EngineTwig}
	want := map[string][]Match{}
	for _, q := range queries {
		res, err := twin.Query(q, QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[q] = res.Matches
	}

	const rounds, goroutines = 4, 8
	for round := 0; round < rounds; round++ {
		st, err := BuildFromString(doc, Options{})
		if err != nil {
			t.Fatal(err)
		}
		prepared := make([]*PreparedQuery, len(queries))
		for i, q := range queries {
			if prepared[i], err = st.Prepare(q, QueryOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		results := make([][]Match, goroutines*len(queries))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := range queries {
					qi := (g + i) % len(queries)
					opts := QueryOptions{Engine: engines[(g+i)%2]}
					var res *Result
					var err error
					if g%2 == 0 {
						res, err = st.Query(queries[qi], opts)
					} else {
						res, err = prepared[qi].Query(opts)
					}
					if err != nil {
						t.Errorf("round %d goroutine %d: %s: %v", round, g, queries[qi], err)
						return
					}
					if !reflect.DeepEqual(res.Matches, want[queries[qi]]) {
						t.Errorf("round %d goroutine %d: %s: %d matches differ from the sequential %d",
							round, g, queries[qi], len(res.Matches), len(want[queries[qi]]))
					}
					results[g*len(queries)+i] = res.Matches
				}
			}(g)
		}
		close(start)
		wg.Wait()
		paths := map[string]*byte{}
		for _, ms := range results {
			for _, m := range ms {
				p := unsafe.StringData(m.Path)
				if first, ok := paths[m.Path]; ok && first != p {
					t.Fatalf("round %d: path %s is held in two separate strings after a first-use race", round, m.Path)
				}
				paths[m.Path] = p
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestHotpathAnnotations pins this package's //blas:hotpath set to the
// finalize loop TestFinalizeAllocations measures, so blasvet's
// zero-alloc analyzer and the allocation guard cover the same code.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got["matches"] {
		t.Errorf("//blas:hotpath set = %v, want exactly [matches]: annotate new hot functions here and add an allocation guard for them", got)
	}
}

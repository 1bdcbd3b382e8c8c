package blas

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/enginetest"
	"repro/internal/xmltree"
)

// arenaMix is the benchmark's query mix on auction: the Fig. 10 and
// Fig. 15 queries it runs and its four value queries.
func arenaMix() []string {
	return []string{
		bench.Fig10Queries["QA1"], bench.Fig10Queries["QA2"], bench.Fig10Queries["QA3"],
		bench.Fig15Queries["Q1"], bench.Fig15Queries["Q2"], bench.Fig15Queries["Q4"],
		bench.Fig15Queries["Q5"], bench.Fig15Queries["Q6"],
		`/site/regions/asia/item[location="Japan"]/name`,
		`/site/people/person/address[city="Tokyo"]/zipcode`,
		`/site/people/person[name="Elena Haddad"]/emailaddress`,
		`/site/people/person[name="Nobody"]/emailaddress`,
	}
}

// arenaStore builds the auction store the arena tests query, and
// returns its document tree for the reference evaluator.
func arenaStore(t *testing.T) (*Store, *xmltree.Node) {
	t.Helper()
	var doc strings.Builder
	if err := GenerateDataset(&doc, datagen.NameAuction, DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	tree, err := xmltree.ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc.String(), Options{PoolPages: 4096})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	return st, tree
}

// TestHeldMatchesSurviveChunkReuse: a query's arena goes back to the
// free lists when Query returns, and the next queries write their
// bindings into the same chunks. The []Match a caller holds is a copy,
// so fifty later queries on both engines leave it unchanged.
func TestHeldMatchesSurviveChunkReuse(t *testing.T) {
	st, _ := arenaStore(t)
	mix := arenaMix()
	held := map[Engine]*Result{}
	want := map[Engine][]Match{}
	for _, eng := range []Engine{EngineRelational, EngineTwig} {
		res, err := st.Query(bench.Fig15Queries["Q1"], QueryOptions{Engine: eng})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Matches) == 0 {
			t.Fatal("Q1 has no answers; the test would check nothing")
		}
		held[eng], want[eng] = res, slices.Clone(res.Matches)
	}
	for i := 0; i < 50; i++ {
		eng := []Engine{EngineRelational, EngineTwig}[i%2]
		if _, err := st.Query(mix[i%len(mix)], QueryOptions{Engine: eng}); err != nil {
			t.Fatal(err)
		}
	}
	for eng, res := range held {
		if !reflect.DeepEqual(res.Matches, want[eng]) {
			t.Errorf("%s: the held matches changed while later queries reused the arena chunks", eng)
		}
	}
}

// TestConcurrencyPooledArenas runs the benchmark mix from 4×GOMAXPROCS
// goroutines at once, on both engines under the auto and dlabel
// translators. Every query takes its chunks from the shared free lists
// and returns them as soon as it has finalized, so queries in flight
// constantly hand chunks to each other; each answer must still equal
// the reference evaluator's, with the visited count of the same query
// run alone. Meant for -race and repeated runs.
func TestConcurrencyPooledArenas(t *testing.T) {
	st, tree := arenaStore(t)
	type combo struct {
		query string
		tr    Translator
		eng   Engine
	}
	var combos []combo
	want := map[string][]uint32{}
	visited := map[combo]uint64{}
	for _, q := range arenaMix() {
		starts, err := enginetest.EvalStarts(tree, q)
		if err != nil {
			t.Fatal(err)
		}
		want[q] = starts
		for _, tr := range []Translator{TranslatorAuto, TranslatorDLabel} {
			for _, eng := range []Engine{EngineRelational, EngineTwig} {
				c := combo{q, tr, eng}
				res, err := st.Query(q, QueryOptions{Translator: tr, Engine: eng})
				if err != nil {
					t.Fatal(err)
				}
				combos, visited[c] = append(combos, c), res.Stats.VisitedElements
			}
		}
	}

	goroutines := 4 * runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range combos {
				c := combos[(g*7+i)%len(combos)]
				res, err := st.Query(c.query, QueryOptions{Translator: c.tr, Engine: c.eng})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %v", g, c.query, c.tr, c.eng, err)
					return
				}
				got := make([]uint32, len(res.Matches))
				for k, m := range res.Matches {
					got[k] = m.Start
				}
				if !enginetest.StartsEqual(got, want[c.query]) {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %d matches, reference %d",
						g, c.query, c.tr, c.eng, len(got), len(want[c.query]))
					return
				}
				if v := res.Stats.VisitedElements; v != visited[c] {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: visited %d, %d alone",
						g, c.query, c.tr, c.eng, v, visited[c])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

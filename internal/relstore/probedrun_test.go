package relstore_test

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/uint128"
	"repro/internal/xpath"
)

// mixQuery is one query of the benchmark's mix_auction_v1 under the
// translator it runs with there (auto resolves to unfold on a store
// with a schema).
type mixQuery struct{ name, query, translator string }

func mixAuctionQueries() []mixQuery {
	var qs []mixQuery
	for _, n := range []string{"QA1", "QA2", "QA3"} {
		qs = append(qs, mixQuery{n, bench.Fig10Queries[n], "unfold"}, mixQuery{n, bench.Fig10Queries[n], "dlabel"})
	}
	for _, n := range []string{"Q1", "Q2", "Q4", "Q5", "Q6"} {
		qs = append(qs, mixQuery{n, bench.Fig15Queries[n], "unfold"})
	}
	return append(qs,
		mixQuery{"V1", `/site/regions/asia/item[location="Japan"]/name`, "unfold"},
		mixQuery{"V2", `/site/people/person/address[city="Tokyo"]/zipcode`, "unfold"},
		mixQuery{"V3", `/site/people/person[name="Elena Haddad"]/emailaddress`, "unfold"},
		mixQuery{"E1", `/site/people/person[name="Nobody"]/emailaddress`, "unfold"})
}

// runKey names a cluster run: a P-label on SP, a tag on SD.
type runKey struct {
	plabel uint128.Uint128
	tag    uint32
}

// heapModel holds, for every cluster run of a store's two relations,
// the records a drain of the run decodes and the heap pages it reads,
// taken from the heap pages themselves: each page that holds a record
// of the run, and the page after a run that ends its page, which the
// run views to see its end. A run with no record reads the page of the
// first record past its key, if any: its start lands there, and the
// record's run ends it.
type heapModel struct {
	st      *core.Store
	records map[runKey]uint64
	reads   map[runKey]uint64
	last    [2]runKey // the largest key of SP and of SD
}

func newHeapModel(t *testing.T, st *core.Store) *heapModel {
	t.Helper()
	m := &heapModel{st: st, records: map[runKey]uint64{}, reads: map[runKey]uint64{}}
	for ri, r := range []*relstore.Relation{st.SP(), st.SD()} {
		pages, err := relstore.HeapPages(r)
		if err != nil {
			t.Fatal(err)
		}
		first := map[runKey]int{}
		for pi, recs := range pages {
			for i, rec := range recs {
				k := runKey{tag: rec.TagID}
				if ri == 0 {
					k = runKey{plabel: rec.PLabel}
				}
				if _, ok := first[k]; !ok {
					first[k] = pi
				}
				m.records[k]++
				m.reads[k] = uint64(pi - first[k] + 1)
				if i == len(recs)-1 && pi < len(pages)-1 {
					m.reads[k]++
				}
				m.last[ri] = k
			}
		}
	}
	return m
}

// onSD reports whether fragment f reads the tag-clustered relation.
func onSD(f *translate.Fragment) bool {
	return f.Access.Kind == translate.AccessTag || f.Access.Kind == translate.AccessAll
}

// expect returns the page reads and the visited records that executing
// plan p on the model's store costs past planning, on the relational
// engine or the twig engine: every drained run's heap pages, plus one
// seek for each run that starts without a position. It also returns
// how many drained runs started positioned and how many sought.
func (m *heapModel) expect(t *testing.T, p *planner.Physical, twigEngine bool) (reads, visited uint64, positioned, sought int) {
	t.Helper()
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		return 0, 0, 0, 0
	}
	// The relational engine drains fragments in scan order up to the
	// first that keeps no record; the twig sweep drains every stream.
	var drained []int
	for _, id := range p.Scans {
		f := lp.Fragments[id]
		if f.Access.Kind == translate.AccessPLabelRange {
			t.Fatalf("fragment F%d is a P-label range, which this model does not cover", id)
		}
		drained = append(drained, id)
		if twigEngine {
			continue
		}
		c, err := m.st.Select(f).Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		kept := 0
		if err := c.Drain(func(recs []relstore.Record) { kept += len(recs) }); err != nil {
			t.Fatal(err)
		}
		if kept == 0 {
			break
		}
	}
	for _, id := range drained {
		f := lp.Fragments[id]
		c, err := p.Selection(m.st, f).Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		rel, last := m.st.SP(), m.last[0]
		if onSD(f) {
			rel, last = m.st.SD(), m.last[1]
		}
		for _, r := range relstore.RunStarts(c) {
			k := runKey{plabel: r.PLabel, tag: r.Tag}
			if n, ok := m.reads[k]; ok {
				reads += n
			} else if onSD(f) && k.tag < last.tag || !onSD(f) && k.plabel.Less(last.plabel) {
				reads++
			}
			visited += m.records[k]
			if r.Positioned {
				positioned++
			} else {
				sought++
				reads += relstore.RunSeekReads(rel, r.PLabel, r.Tag)
			}
		}
	}
	return reads, visited, positioned, sought
}

// execStats is one execution: its answer's start positions and its
// counters.
type execStats struct {
	starts         []uint32
	reads, visited uint64
	early          bool
}

func execute(t *testing.T, ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, twigEngine bool) execStats {
	var res *core.Result
	var err error
	if twigEngine {
		res, err = twig.Execute(ctx, st, p, core.ExecConfig{})
	} else {
		res, err = relengine.Execute(ctx, st, p, relengine.Options{})
	}
	if err != nil {
		t.Error(err)
		return execStats{}
	}
	return execStats{res.Starts(), ctx.PageReads(), ctx.Visited(), res.EarlyTerminated}
}

// TestProbedRunsAreNotSoughtAgain pins that a run the planner's probe
// positioned starts there, with no descent of its own, on both engines
// and on every query of mix_auction_v1 (auction, factor 2, seed 1):
//   - a greedy plan reads its probe pages plus the heap pages its runs
//     read, and one seek only for a run the probe left unpositioned (a
//     list label past the probe cap, or a run whose first entry heads a
//     leaf);
//   - the NoReorder plan reads its runs' heap pages plus one seek per
//     run;
//   - run on a second handle of the same data, whose plan positions it
//     cannot use, the greedy plan seeks every run, and returns the same
//     answer and visited records as on the store it probed;
//   - run on a store built from another document, it returns that
//     store's own answer;
//   - one plan run from four goroutines at once gives every run the
//     same answer and page reads.
func TestProbedRunsAreNotSoughtAgain(t *testing.T) {
	build := func(seed int64) *core.Store {
		st, err := core.BuildFromTree(datagen.Auction(datagen.Options{Seed: seed, Factor: 2}), core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = st.Close() })
		return st
	}
	st, twin, other := build(1), build(1), build(2)
	model, twinModel, otherModel := newHeapModel(t, st), newHeapModel(t, twin), newHeapModel(t, other)
	if st.Schema() == nil {
		t.Fatal("auction store has no schema: auto would not resolve to unfold")
	}

	type prepared struct {
		name string
		plan *planner.Physical
		want [2]execStats // per engine: relational, twig
	}
	var plans []prepared
	var positionedRuns, soughtRuns int
	for _, q := range mixAuctionQueries() {
		name := q.name + "/" + q.translator
		tr, err := translate.ByName(q.translator)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse(q.query))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pq := prepared{name: name}
		for e, twigEngine := range []bool{false, true} {
			engine := name + [2]string{"/rel", "/twig"}[e]

			ctx := relstore.NewExecContext()
			greedy, err := planner.Plan(ctx, st, lp, planner.Options{})
			if err != nil {
				t.Fatalf("%s: %v", engine, err)
			}
			probe := ctx.PageReads()
			g := execute(t, ctx, st, greedy, twigEngine)
			reads, visited, positioned, sought := model.expect(t, greedy, twigEngine)
			if g.reads != probe+reads || g.visited != visited {
				t.Errorf("%s greedy: %d page reads, %d visited; want the probe's %d plus %d (%d runs positioned, %d sought) and %d visited",
					engine, g.reads, g.visited, probe, reads, positioned, sought, visited)
			}
			positionedRuns += positioned
			soughtRuns += sought

			fixed, err := planner.Plan(nil, st, lp, planner.Options{NoReorder: true})
			if err != nil {
				t.Fatal(err)
			}
			f := execute(t, relstore.NewExecContext(), st, fixed, twigEngine)
			reads, visited, positioned, _ = model.expect(t, fixed, twigEngine)
			if f.reads != reads || f.visited != visited || positioned != 0 {
				t.Errorf("%s NoReorder: %d page reads, %d visited, %d runs positioned; want %d, %d and 0",
					engine, f.reads, f.visited, positioned, reads, visited)
			}
			if !slices.Equal(g.starts, f.starts) {
				t.Errorf("%s: greedy answer (%d matches) differs from NoReorder's (%d)", engine, len(g.starts), len(f.starts))
			}

			// The twin holds the same data, so only the run starts differ:
			// the greedy plan seeks every run there.
			w := execute(t, relstore.NewExecContext(), twin, greedy, twigEngine)
			reads, visited, positioned, _ = twinModel.expect(t, greedy, twigEngine)
			if w.reads != reads || positioned != 0 || !slices.Equal(w.starts, g.starts) || w.visited != g.visited || w.early != g.early {
				t.Errorf("%s on a twin store: %d page reads, %d positioned runs, %d matches, %d visited; want %d, 0, %d and %d",
					engine, w.reads, positioned, len(w.starts), w.visited, reads, len(g.starts), g.visited)
			}

			// Another document: the plan's positions are not its own.
			ownPlan, err := planner.Plan(nil, other, lp, planner.Options{})
			if err != nil {
				t.Fatal(err)
			}
			own := execute(t, relstore.NewExecContext(), other, ownPlan, twigEngine)
			o := execute(t, relstore.NewExecContext(), other, greedy, twigEngine)
			reads, _, positioned, _ = otherModel.expect(t, greedy, twigEngine)
			if !slices.Equal(o.starts, own.starts) || o.reads != reads || positioned != 0 {
				t.Errorf("%s probed on one store, run on another: %d matches, %d page reads, %d positioned runs; want that store's own %d matches, %d page reads and 0",
					engine, len(o.starts), o.reads, positioned, len(own.starts), reads)
			}

			pq.plan = greedy
			pq.want[e] = execute(t, relstore.NewExecContext(), st, greedy, twigEngine)
		}
		if !slices.Equal(pq.want[0].starts, pq.want[1].starts) {
			t.Errorf("%s: the engines' answers differ", name)
		}
		plans = append(plans, pq)
	}
	if positionedRuns == 0 || soughtRuns > positionedRuns/4 {
		t.Errorf("greedy plans drained %d positioned runs and sought %d: the probes should position nearly every run", positionedRuns, soughtRuns)
	}
	t.Logf("greedy plans: %d runs started at their probe's position, %d sought", positionedRuns, soughtRuns)

	// One plan, four goroutines: the plans are shared, read-only.
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, pq := range plans {
				for e, twigEngine := range []bool{false, true} {
					got := execute(t, relstore.NewExecContext(), st, pq.plan, twigEngine)
					if want := pq.want[e]; !slices.Equal(got.starts, want.starts) || got.reads != want.reads || got.visited != want.visited {
						t.Errorf("%s engine %d, concurrent: %d matches, %d page reads, %d visited; want %d, %d and %d",
							pq.name, e, len(got.starts), got.reads, got.visited, len(want.starts), want.reads, want.visited)
					}
				}
			}
		}()
	}
	wg.Wait()
}

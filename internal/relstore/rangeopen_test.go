package relstore_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/uint128"
	"repro/internal/xpath"
)

// TestRangeRunsOpenAtSkipScan pins that a P-label range selection opens
// each of its runs at the locator its skip scan read beside the run's
// label, with no second descent of the clustered index per run. Its
// page reads are then exactly the skip scan's (Open reads nothing else)
// plus the heap pages of its runs: each page that holds a record of a
// run, and the page after a run that ends its page, which the run views
// to see its end. Checked on random ranges over the SP relation of the
// auction document at factor 2, seed 1, and on //keyword under pushup:
// 34 runs, 105 skip-scan reads and 141 page reads in all, where a run
// that seeks its own start again reads 243.
func TestRangeRunsOpenAtSkipScan(t *testing.T) {
	st, err := core.BuildFromTree(datagen.Auction(datagen.Options{Seed: 1, Factor: 2}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sp := st.SP()

	// The heap pages each P-label's run reads, from the heap itself.
	pages, err := relstore.HeapPages(sp)
	if err != nil {
		t.Fatal(err)
	}
	type span struct{ first, reads int }
	runs := map[uint128.Uint128]*span{}
	var labels []uint128.Uint128
	for pi, recs := range pages {
		for i, r := range recs {
			s := runs[r.PLabel]
			if s == nil {
				s = &span{first: pi}
				runs[r.PLabel] = s
				labels = append(labels, r.PLabel)
			}
			s.reads = pi - s.first + 1
			if i == len(recs)-1 && pi < len(pages)-1 {
				s.reads++
			}
		}
	}

	// check opens and drains a range selection and returns its runs, its
	// skip scan's page reads and all its page reads.
	check := func(name string, sel relstore.Selection) (nruns int, skip, reads uint64) {
		t.Helper()
		ctx := relstore.NewExecContext()
		c, err := sel.Open(ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		skip = ctx.PageReads()
		var heap uint64
		var got []relstore.Record
		if err := c.Drain(func(recs []relstore.Record) { got = append(got, recs...) }); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[uint128.Uint128]bool{}
		for _, r := range got {
			if !seen[r.PLabel] {
				seen[r.PLabel] = true
				heap += uint64(runs[r.PLabel].reads)
			}
		}
		if len(seen) != relstore.CursorRuns(c) {
			t.Fatalf("%s: %d runs opened, %d P-labels read", name, relstore.CursorRuns(c), len(seen))
		}
		if reads = ctx.PageReads(); reads != skip+heap {
			t.Fatalf("%s: %d page reads, want the skip scan's %d plus the runs' %d heap pages (%d)",
				name, reads, skip, heap, skip+heap)
		}
		return len(seen), skip, reads
	}

	slices.SortFunc(labels, uint128.Uint128.Cmp)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 100; trial++ {
		a, b := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
		if b.Less(a) {
			a, b = b, a
		}
		if n, _, _ := check("random range", sp.PLabelRange(a, b)); n == 0 {
			t.Fatalf("range [%v, %v] of present labels opened no run", a, b)
		}
	}

	p, err := translate.PushUp(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse("//keyword"))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fragments) != 1 || p.Fragments[0].Access.Kind != translate.AccessPLabelRange {
		t.Fatalf("//keyword under pushup: want one P-label range fragment, got %d fragments", len(p.Fragments))
	}
	if n, skip, reads := check("//keyword", st.Select(p.Fragments[0])); n != 34 || skip != 105 || reads != 141 {
		t.Fatalf("//keyword under pushup: %d runs, %d skip-scan reads, %d page reads; want 34, 105 and 141", n, skip, reads)
	}
}

package relstore_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relstore"
	"repro/internal/uint128"
)

// TestHeapScanViewsEachPageOnce pins the page-sized batch: a one-run
// cursor reads one page's share of its selection per refill into its
// BatchSize buffer, and Drain hands over each share whole, so it
// requests each heap page that holds the selection exactly once, on SP
// for every P-label and on SD for every tag of a generated document.
// The one extra request is the page after a selection that ends with
// its page, viewed to see that the selection stopped. The run decoder
// read with a 7-record buffer splits pages and must still return the
// same records in the same order.
func TestHeapScanViewsEachPageOnce(t *testing.T) {
	st, err := core.BuildFromTree(datagen.Auction(datagen.Options{Seed: 1, Factor: 1}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// A selection is one cluster prefix: a P-label on SP, a tag on SD.
	type key struct {
		plabel uint128.Uint128
		tag    uint32
	}
	type selection struct {
		key          key
		want         []relstore.Record // its records, in heap order
		held         map[int]bool      // the heap pages holding them
		endsWithPage bool              // its last record ends a page that is not the last
	}
	for _, rel := range []*relstore.Relation{st.SP(), st.SD()} {
		pages, err := relstore.HeapPages(rel)
		if err != nil {
			t.Fatal(err)
		}
		pageOf := map[uint32]int{} // start -> heap page index
		var sels []*selection
		byKey := map[key]*selection{}
		for pi, recs := range pages {
			for i, r := range recs {
				pageOf[r.Start] = pi
				k := key{tag: r.TagID}
				if rel.Kind() == relstore.ClusterPLabel {
					k = key{plabel: r.PLabel}
				}
				s := byKey[k]
				if s == nil {
					s = &selection{key: k, held: map[int]bool{}}
					byKey[k] = s
					sels = append(sels, s)
				}
				s.want = append(s.want, r)
				s.held[pi] = true
				s.endsWithPage = i == len(recs)-1 && pi < len(pages)-1
			}
		}
		largest := 0
		for _, s := range sels {
			cursor := func(ctx *relstore.ExecContext) *relstore.Cursor {
				if rel.Kind() == relstore.ClusterPLabel {
					return rel.ScanPLabels(ctx, []uint128.Uint128{s.key.plabel}, nil, 0)
				}
				return rel.ScanTags(ctx, []uint32{s.key.tag}, nil, 0)
			}
			name := fmt.Sprintf("%s %+v", rel.Kind(), s.key)
			wantReads := uint64(len(s.held))
			if s.endsWithPage {
				wantReads++
			}

			ctx := relstore.NewExecContext()
			seekReads := relstore.RunSeekReads(rel, s.key.plabel, s.key.tag)
			var got []relstore.Record
			err := cursor(ctx).Drain(func(batch []relstore.Record) {
				largest = max(largest, len(batch))
				for _, r := range batch[1:] {
					if pageOf[r.Start] != pageOf[batch[0].Start] {
						t.Fatalf("%s: one batch spans heap pages %d and %d", name, pageOf[batch[0].Start], pageOf[r.Start])
					}
				}
				got = append(got, batch...)
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !equalRecords(got, s.want) {
				t.Fatalf("%s: scan returned %d records, want %d", name, len(got), len(s.want))
			}
			if reads := ctx.PageReads() - seekReads; reads != wantReads {
				t.Errorf("%s: %d heap page requests for %d records on %d pages (ends with its page: %v), want %d",
					name, reads, len(s.want), len(s.held), s.endsWithPage, wantReads)
			}
			if ctx.Visited() != uint64(len(s.want)) {
				t.Errorf("%s: visited %d, want %d", name, ctx.Visited(), len(s.want))
			}

			small, err := relstore.CollectRun(rel, s.key.plabel, s.key.tag, 7)
			if err != nil {
				t.Fatalf("%s, 7-record batches: %v", name, err)
			}
			if !equalRecords(small, got) {
				t.Fatalf("%s: 7-record batches returned %d records, want the %d of BatchSize batches", name, len(small), len(got))
			}
		}
		t.Logf("%s: %d selections over %d heap pages, largest batch %d records", rel.Kind(), len(sels), len(pages), largest)
	}
}

func equalRecords(a, b []relstore.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

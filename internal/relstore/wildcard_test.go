package relstore_test

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
)

// TestWildcardStreamReadsElementRuns pins the wildcard (AccessAll)
// fragment stream on a document with attributes: a start-ordered merge
// of SD's element-tag runs. It must return every element record in
// document order and decode no attribute record; each run must give
// its pooled buffer back once; and a cold drain requests at most every
// SD heap page, plus per element tag one index descent and one page
// that a run shares with its neighbour or views to see that it ended.
func TestWildcardStreamReadsElementRuns(t *testing.T) {
	st, err := core.BuildFromTree(datagen.Auction(datagen.Options{Seed: 1, Factor: 1}), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sd := st.SD()
	pages, err := relstore.HeapPages(sd)
	if err != nil {
		t.Fatal(err)
	}
	var want []relstore.Record
	attrs := 0
	for _, recs := range pages {
		for _, r := range recs {
			name, _ := st.TagName(r.TagID)
			if xmltree.IsAttrTag(name) {
				attrs++
				continue
			}
			want = append(want, r)
		}
	}
	slices.SortFunc(want, func(a, b relstore.Record) int { return int(a.Start) - int(b.Start) })
	elemTags := 0
	for _, tag := range st.Scheme().Tags() {
		if !xmltree.IsAttrTag(tag) {
			elemTags++
		}
	}
	if attrs == 0 || elemTags < 2 {
		t.Fatalf("document has %d attribute records and %d element tags; the test needs both kinds", attrs, elemTags)
	}

	// From an empty pool, a drain whose runs each take one buffer and
	// give it back leaves exactly one buffer per run in the pool.
	relstore.EmptyBatchPool()
	if err := st.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ctx := relstore.NewExecContext()
	cur, err := st.PrepareFragmentStream(ctx, &translate.Fragment{Access: translate.Access{Kind: translate.AccessAll}})
	if err != nil {
		t.Fatal(err)
	}
	var got []relstore.Record
	if err := cur.Drain(func(recs []relstore.Record) { got = append(got, recs...) }); err != nil {
		t.Fatal(err)
	}
	if !equalRecords(got, want) {
		t.Fatalf("wildcard stream returned %d records, want the %d element records in start order", len(got), len(want))
	}
	if v := ctx.Visited(); v != uint64(len(want)) {
		t.Errorf("visited %d records, want the %d element records (%d attribute records exist)", v, len(want), attrs)
	}
	if idle := relstore.IdleBatches(); idle != elemTags {
		t.Fatalf("%d buffers back in the pool after the drain, want one per run (%d): a run kept its buffer or took two", idle, elemTags)
	}

	bound := uint64(len(pages) + elemTags*(relstore.ClusterHeight(sd)+1))
	if reads := ctx.PageReads(); reads > bound {
		t.Errorf("cold wildcard drain made %d page requests, want at most %d (%d heap pages + %d element tags × (height %d + 1))",
			reads, bound, len(pages), elemTags, relstore.ClusterHeight(sd))
	} else {
		t.Logf("cold wildcard drain: %d page requests, bound %d (%d heap pages, %d element tags, height %d)",
			reads, bound, len(pages), elemTags, relstore.ClusterHeight(sd))
	}
}

package relstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/uint128"
)

// batchFixture builds an in-memory plabel-clustered relation with nlabels
// distinct plabels and per-label runs of varying length.
func batchFixture(t *testing.T, nlabels, perLabel int) (*Relation, []Record) {
	t.Helper()
	rnd := rand.New(rand.NewSource(42))
	var recs []Record
	start := uint32(1)
	for i := 0; i < nlabels*perLabel; i++ {
		label := uint128.From64(uint64(rnd.Intn(nlabels) + 1))
		data := ""
		if rnd.Intn(3) == 0 {
			data = "v"
		}
		recs = append(recs, Record{
			PLabel: label,
			TagID:  uint32(rnd.Intn(4) + 1),
			Start:  start,
			End:    start + 1,
			Level:  uint16(rnd.Intn(5) + 1),
			Data:   data,
		})
		start += 2
	}
	f := pager.OpenMem(16)
	rel, err := Build(f, ClusterPLabel, recs)
	if err != nil {
		t.Fatal(err)
	}
	return rel, recs
}

// TestBatchScanMatchesIter: every run decoder must produce exactly the
// input records of its label in start order, at several batch sizes
// (including sizes smaller than a page run and larger than the result),
// and so must the label's cursor.
func TestBatchScanMatchesIter(t *testing.T) {
	rel, recs := batchFixture(t, 6, 40)
	byStart := sortedByStart(recs)
	for _, batchSize := range []int{1, 3, 64, 4096} {
		for label := uint64(1); label <= 6; label++ {
			p := uint128.From64(label)
			want := filterRecs(byStart, func(r *Record) bool { return r.PLabel == p })
			got, err := collectRun(plabelRun(rel, nil, p), batchSize)
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(got, want) {
				t.Fatalf("label %d batchSize %d: %d records, want %d", label, batchSize, len(got), len(want))
			}
			if got, err = drainCursor(exact(rel, nil, p)); err != nil || !recordsEqual(got, want) {
				t.Fatalf("label %d cursor: %d records (err %v), want %d", label, len(got), err, len(want))
			}
		}
	}
}

// TestBatchMergeByStart: the cursor over several exact label runs must
// equal the start-sorted concatenation of those runs, read through
// Head/Advance and through Drain.
func TestBatchMergeByStart(t *testing.T) {
	rel, recs := batchFixture(t, 6, 50)
	labels := []uint128.Uint128{uint128.From64(1), uint128.From64(3), uint128.From64(5), uint128.From64(6)}
	inRuns := map[uint128.Uint128]bool{}
	for _, l := range labels {
		inRuns[l] = true
	}
	want := filterRecs(sortedByStart(recs), func(r *Record) bool { return inRuns[r.PLabel] })

	var got []Record
	c := rel.ScanPLabels(nil, labels, nil, 0)
	for h := c.Head(); h != nil; h = c.Head() {
		got = append(got, *h)
		c.Advance()
	}
	if c.Err() != nil {
		t.Fatal(c.Err())
	}
	if len(want) == 0 || !recordsEqual(got, want) {
		t.Fatalf("Head/Advance merge: %d records, want %d", len(got), len(want))
	}
	got, err := drainCursor(rel.ScanPLabels(nil, labels, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, want) {
		t.Fatalf("Drain merge: %d records, want %d", len(got), len(want))
	}
}

// TestBatchPageReadAmortization pins the point of page-sized batches: a
// run decoder reading a multi-page run into a BatchSize buffer must
// issue fewer buffer-pool requests than the same scan one record per
// batch, which pays one view per record.
func TestBatchPageReadAmortization(t *testing.T) {
	rel, _ := batchFixture(t, 2, 600) // hundreds of records per label => several heap pages
	p := uint128.From64(1)

	oneCtx := NewExecContext()
	recs, err := collectRun(plabelRun(rel, oneCtx, p), 1)
	if err != nil {
		t.Fatal(err)
	}
	batchCtx := NewExecContext()
	brecs, err := collectRun(plabelRun(rel, batchCtx, p), BatchSize)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(brecs, recs) {
		t.Fatalf("batched scan diverged: %d records, want %d", len(brecs), len(recs))
	}
	if batchCtx.Visited() != oneCtx.Visited() {
		t.Fatalf("visited %d != %d", batchCtx.Visited(), oneCtx.Visited())
	}
	if batchCtx.PageReads() >= oneCtx.PageReads() {
		t.Fatalf("batched scan issued %d pool requests, record-at-a-time %d — batching should amortize",
			batchCtx.PageReads(), oneCtx.PageReads())
	}
}

func recordsEqual(a, b []Record) bool {
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

// TestBatchSizeHoldsAFullPage guards the derivation of BatchSize: packed
// with the smallest records the format can store (empty values, one-byte
// deltas), no heap page of either clustering may hold more than
// BatchSize records, or an engine buffer would split that page and
// request it once per batch. On SP the densest page holds exactly
// BatchSize: a format change that narrows records must raise the
// constant with it.
func TestBatchSizeHoldsAFullPage(t *testing.T) {
	recs := make([]Record, 3*BatchSize)
	for i := range recs {
		s := uint32(i + 1)
		recs[i] = Record{PLabel: uint128.From64(1), TagID: 1, Start: s, End: s, Level: 1}
	}
	for _, kind := range []Clustering{ClusterPLabel, ClusterTag} {
		rel, err := Build(pager.OpenMem(64), kind, recs)
		if err != nil {
			t.Fatal(err)
		}
		pages, err := HeapPages(rel)
		if err != nil {
			t.Fatal(err)
		}
		densest := 0
		for _, p := range pages {
			densest = max(densest, len(p))
		}
		if densest > BatchSize {
			t.Errorf("%s: a heap page holds %d minimal records, more than BatchSize = %d", kind, densest, BatchSize)
		}
		if kind == ClusterPLabel && densest != BatchSize {
			t.Errorf("SP: the densest heap page holds %d minimal records, BatchSize = %d is not derived from the page layout", densest, BatchSize)
		}
		t.Logf("%s: densest page %d records, BatchSize %d", kind, densest, BatchSize)
	}
}

// TestBatchReleaseClearsWhatItHeld: a released buffer keeps no record
// (so no value string) reachable from the pool, and a second release,
// which would hand the buffer to two streams, panics.
func TestBatchReleaseClearsWhatItHeld(t *testing.T) {
	rel, _ := batchFixture(t, 2, 600)
	b := getBatch()
	recs, err := b.next(plabelRun(rel, nil, uint128.From64(1)))
	if err != nil || len(recs) == 0 {
		t.Fatalf("first batch: %d records, err %v", len(recs), err)
	}
	b.release()
	assertReleased(t, "batch", b)
	defer func() {
		if recover() == nil {
			t.Error("a second release did not panic")
		}
	}()
	b.release()
}

// TestMergeReleasesEachRunOnce: every run of a merging cursor reads
// into a pooled buffer of its own and returns it once, when the run is
// exhausted, however often the cursor is read past its end; the cursor
// returns the same records as the start-sorted union of its runs.
func TestMergeReleasesEachRunOnce(t *testing.T) {
	var recs []Record
	for i := 0; i < 3*300+5*5; i++ {
		label := 1 + i%3 // three runs of 300 records
		if i >= 900 {
			label = 4 + i%5 // five runs of 5
		}
		s := uint32(2*i + 1)
		recs = append(recs, Record{PLabel: uint128.From64(uint64(label)), TagID: 1, Start: s, End: s + 1, Level: 2, Data: "v"})
	}
	rel, err := Build(pager.OpenMem(16), ClusterPLabel, recs)
	if err != nil {
		t.Fatal(err)
	}
	var labels []uint128.Uint128
	for l := uint64(1); l <= 8; l++ {
		labels = append(labels, uint128.From64(l))
	}
	ctx := NewExecContext()
	c := rel.ScanPLabels(ctx, labels, nil, 0)
	if c.Head() == nil {
		t.Fatal("the cursor has no head")
	}
	if len(c.runs) != 8 {
		t.Fatalf("%d runs, want 8", len(c.runs))
	}
	own := map[*batch]bool{}
	var batches []*batch
	for i := range c.runs {
		b := c.runs[i].buf
		if b == nil || own[b] {
			t.Fatalf("run %d: no buffer of its own after the first Head", i)
		}
		own[b] = true
		batches = append(batches, b)
	}
	var got []Record
	for h := c.Head(); h != nil; h = c.Head() {
		got = append(got, *h)
		c.Advance()
	}
	if c.Err() != nil || !recordsEqual(got, sortedByStart(recs)) {
		t.Fatalf("merge returned %d records (err %v), want %d in start order", len(got), c.Err(), len(recs))
	}
	reads := ctx.PageReads()
	for i := 0; i < 3; i++ {
		if c.Head() != nil || c.Err() != nil {
			t.Fatalf("read past the end: head %v, err %v", c.Head(), c.Err())
		}
	}
	if ctx.PageReads() != reads {
		t.Fatalf("read past the end: %d more page requests", ctx.PageReads()-reads)
	}
	for i := range c.runs {
		if c.runs[i].buf != nil {
			t.Fatalf("run %d: the exhausted run still holds its buffer", i)
		}
		assertReleased(t, fmt.Sprintf("run %d", i), batches[i])
	}
}

// assertReleased checks that b is back in the pool with no record left.
func assertReleased(t *testing.T, name string, b *batch) {
	t.Helper()
	if !b.pooled || b.used != 0 {
		t.Fatalf("%s: not released (pooled %v, used %d)", name, b.pooled, b.used)
	}
	for i := range b.recs {
		if b.recs[i] != (Record{}) {
			t.Fatalf("%s: released buffer still holds record %d: %+v", name, i, b.recs[i])
		}
	}
}

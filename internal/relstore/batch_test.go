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

// TestBatchScanMatchesIter: every batched exact scan must produce
// exactly the input records of its label in start order, at several
// batch sizes (including sizes smaller than a page run and larger than
// the result).
func TestBatchScanMatchesIter(t *testing.T) {
	rel, recs := batchFixture(t, 6, 40)
	byStart := sortedByStart(recs)
	for _, batchSize := range []int{1, 3, 64, 4096} {
		for label := uint64(1); label <= 6; label++ {
			p := uint128.From64(label)
			want := filterRecs(byStart, func(r *Record) bool { return r.PLabel == p })
			got, err := CollectBatches(rel.ScanPLabelExactBatch(nil, p), batchSize)
			if err != nil {
				t.Fatal(err)
			}
			if !recordsEqual(got, want) {
				t.Fatalf("label %d batchSize %d: %d records, want %d", label, batchSize, len(got), len(want))
			}
		}
	}
}

// TestBatchMergeByStart: the batched k-way merge over several exact
// scans must equal the start-sorted concatenation of their runs.
func TestBatchMergeByStart(t *testing.T) {
	rel, recs := batchFixture(t, 6, 50)
	labels := []uint64{1, 3, 5, 6}

	var batchRuns []BatchIter
	inRuns := map[uint128.Uint128]bool{}
	for _, l := range labels {
		batchRuns = append(batchRuns, rel.ScanPLabelExactBatch(nil, uint128.From64(l)))
		inRuns[uint128.From64(l)] = true
	}
	want := filterRecs(sortedByStart(recs), func(r *Record) bool { return inRuns[r.PLabel] })
	mBatch, err := MergeBatchesByStart(batchRuns)
	if err != nil {
		t.Fatal(err)
	}
	got, err := CollectBatches(mBatch, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !recordsEqual(got, want) {
		t.Fatalf("batched merge: %d records, want %d", len(got), len(want))
	}
}

// TestBatchPageReadAmortization pins the point of the batch layer: a
// batched scan of a multi-page run must issue fewer buffer-pool requests
// than the same scan one record per batch, which pays one view per
// record.
func TestBatchPageReadAmortization(t *testing.T) {
	rel, _ := batchFixture(t, 2, 600) // hundreds of records per label => several heap pages
	p := uint128.From64(1)

	oneCtx := NewExecContext()
	recs, err := CollectBatches(rel.ScanPLabelExactBatch(oneCtx, p), 1)
	if err != nil {
		t.Fatal(err)
	}
	batchCtx := NewExecContext()
	brecs, err := CollectBatches(rel.ScanPLabelExactBatch(batchCtx, p), BatchSize)
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
	b := GetBatch()
	recs, err := b.Next(rel.ScanPLabelExactBatch(nil, uint128.From64(1)))
	if err != nil || len(recs) == 0 {
		t.Fatalf("first batch: %d records, err %v", len(recs), err)
	}
	b.Release()
	assertReleased(t, "batch", b)
	defer func() {
		if recover() == nil {
			t.Error("a second Release did not panic")
		}
	}()
	b.Release()
}

// TestMergeReleasesEachRunOnce: every run of a batch merge reads into a
// pooled buffer of its own and returns it once, when the run is
// exhausted, however often the merge is drained past its end; the merge
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
	var srcs []BatchIter
	for l := uint64(1); l <= 8; l++ {
		srcs = append(srcs, rel.ScanPLabelExactBatch(nil, uint128.From64(l)))
	}
	bi, err := MergeBatchesByStart(srcs)
	if err != nil {
		t.Fatal(err)
	}
	m := bi.(*batchMergeIter)
	runs := append([]*mergeBatchRun(nil), m.runs...)
	var batches []*Batch
	for _, r := range runs {
		batches = append(batches, r.batch)
	}
	if len(runs) != 8 {
		t.Fatalf("%d runs, want 8", len(runs))
	}
	got, err := CollectBatches(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, sortedByStart(recs)) {
		t.Fatalf("merge returned %d records, want %d in start order", len(got), len(recs))
	}
	drain := make([]Record, 7)
	for i := 0; i < 3; i++ {
		if n, err := m.NextBatch(drain); n != 0 || err != nil {
			t.Fatalf("drain past the end: %d records, err %v", n, err)
		}
	}
	for i, r := range runs {
		if r.batch != nil {
			t.Fatalf("run %d: the exhausted run still holds its buffer", i)
		}
		assertReleased(t, fmt.Sprintf("run %d", i), batches[i])
	}
}

// assertReleased checks that b is back in the pool with no record left.
func assertReleased(t *testing.T, name string, b *Batch) {
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

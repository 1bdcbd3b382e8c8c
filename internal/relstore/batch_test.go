package relstore

import (
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

package relstore

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pager"
	"repro/internal/uint128"
)

// labelCycleRun returns n records of one tag, from start on in start
// order, whose P-labels cycle through nlabels distinct labels: an SD
// page-run of k such records has a dictionary of min(k, nlabels)
// labels. Values are short enough that a page-run can hold 300 labels
// and their records, and start deltas need one or two bytes.
func labelCycleRun(rng *rand.Rand, tag uint32, nlabels, n int, start uint32) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			PLabel: uint128.From64(uint64(tag)<<32 | uint64(i%nlabels)),
			TagID:  tag,
			Start:  start,
			End:    start + uint32(rng.Intn(400)),
			Level:  uint16(rng.Intn(12) + 1),
			Data:   strings.Repeat("v", rng.Intn(4)),
		}
		start += uint32(rng.Intn(300) + 1)
	}
	return recs
}

// fitsOnePage reports whether recs, in cluster order, encode into one
// heap page.
func fitsOnePage(kind Clustering, recs []Record) bool {
	ptrs := make([]*Record, len(recs))
	for i := range recs {
		ptrs[i] = &recs[i]
	}
	return encodeColumnarPage(make([]byte, pager.PageSize), kind, ptrs) == nil
}

// TestSDLabelPackingIsExact builds an SD relation whose tag runs cycle
// through 1, 127, 128, 129 and 300 distinct P-labels in start order —
// a label index needs a second byte from index 128 on — and checks
// that it decodes to its input and that the builder's incremental cost
// accounting is exact, not merely safe: every heap page but the last
// is full, in that the next page's first record would not have fit on
// it.
func TestSDLabelPackingIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var recs []Record
	for i, n := range []int{1, 127, 128, 129, 300} {
		recs = append(recs, labelCycleRun(rng, uint32(i+1), n, 2000, uint32(i)<<24+1)...)
	}
	rel := buildT(t, ClusterTag, recs)

	got, err := collectRun(rel.ScanAllBatch(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !recordsEqual(got, sortedByCluster(ClusterTag, recs)) {
		t.Fatalf("scan differs from the input (%d vs %d records)", len(got), len(recs))
	}

	pages, err := HeapPages(rel)
	if err != nil {
		t.Fatal(err)
	}
	for pi := 0; pi+1 < len(pages); pi++ {
		if !fitsOnePage(ClusterTag, pages[pi]) {
			t.Fatalf("heap page %d (%d records) does not fit a page", pi, len(pages[pi]))
		}
		if fitsOnePage(ClusterTag, append(pages[pi][:len(pages[pi]):len(pages[pi])], pages[pi+1][0])) {
			t.Errorf("heap page %d (%d records) had room for the next page's first record", pi, len(pages[pi]))
		}
	}

	largest := 0
	for id := rel.meta.heapFirst; id <= rel.meta.heapLast; id++ {
		err := rel.f.View(id, func(p []byte) error {
			_, nruns, err := colPageCounts(p)
			for ri := 0; err == nil && ri < nruns; ri++ {
				var run colRun
				run, err = colRunAt(p, ClusterTag, ri)
				largest = max(largest, run.nlabels)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if largest != 300 {
		t.Errorf("largest run dictionary holds %d labels, want 300: the two-byte index path is not exercised", largest)
	}
	t.Logf("%d records on %d heap pages, largest dictionary %d labels", len(recs), len(pages), largest)
}

package relstore

import (
	"fmt"

	"repro/internal/uint128"
)

// HeapPages decodes every heap page of r and returns each page's
// records in slot order, for tests that check which pages a scan reads.
func HeapPages(r *Relation) ([][]Record, error) {
	var pages [][]Record
	for id := r.meta.heapFirst; id <= r.meta.heapLast; id++ {
		err := r.f.View(id, func(p []byte) error {
			nrecs, _, err := colPageCounts(p)
			if err != nil {
				return err
			}
			recs := make([]Record, nrecs)
			if err := decodeColSlots(p, r.meta.kind, 0, nrecs, recs); err != nil {
				return err
			}
			pages = append(pages, recs)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	return pages, nil
}

// decodeColSlots decodes page slots [lo, hi) of a columnar page into
// dst[0 : hi-lo], walking the run directory and decoding each run's
// overlap. A directory whose runs leave any of those slots uncovered is
// corrupt.
func decodeColSlots(p []byte, kind Clustering, lo, hi int, dst []Record) error {
	nrecs, nruns, err := colPageCounts(p)
	if err != nil {
		return err
	}
	if lo < 0 || hi > nrecs || lo > hi {
		return fmt.Errorf("relstore: slots [%d, %d) out of range on columnar page (%d records)", lo, hi, nrecs)
	}
	origLo := lo
	for ri := 0; ri < nruns && lo < hi; ri++ {
		run, err := colRunAt(p, kind, ri)
		if err != nil {
			return err
		}
		if run.firstSlot+run.count <= lo {
			continue
		}
		if run.firstSlot > lo {
			return fmt.Errorf("relstore: corrupt columnar page: run %d starts at slot %d, slot %d is in no run", ri, run.firstSlot, lo)
		}
		a := lo - run.firstSlot
		b := min(hi-run.firstSlot, run.count)
		if err := decodeRunRecords(p, kind, run, a, b, dst[lo-origLo:lo-origLo+(b-a)]); err != nil {
			return err
		}
		lo = run.firstSlot + b
	}
	if lo < hi {
		return fmt.Errorf("relstore: corrupt columnar page: slot %d is in no run", lo)
	}
	return nil
}

// ClusterHeight returns the height of r's clustered index: the page
// reads of one seek.
func ClusterHeight(r *Relation) int { return int(r.meta.cluster.Height) }

// EmptyBatchPool drops every idle run buffer. The pool allocates only
// when it is empty, so once every cursor started afterwards has given
// its buffers back, the pool holds as many buffers as those cursors
// held at their peak.
func EmptyBatchPool() {
	idleBatches.Lock()
	clear(idleBatches.list)
	idleBatches.list = idleBatches.list[:0]
	idleBatches.Unlock()
}

// IdleBatches returns the number of run buffers in the pool.
func IdleBatches() int {
	idleBatches.Lock()
	defer idleBatches.Unlock()
	return len(idleBatches.list)
}

// CursorRuns returns the number of cluster runs c reads.
func CursorRuns(c *Cursor) int { return len(c.runs) }

// RunSeekReads returns the page requests of the index seek that opens a
// cursor's run of one cluster prefix: plabel on SP, tag on SD.
func RunSeekReads(r *Relation, plabel uint128.Uint128, tag uint32) uint64 {
	ctx := NewExecContext()
	h := heapRunIter{r: r, ctx: ctx, plabel: plabel, tagID: tag}
	h.seek()
	return ctx.PageReads()
}

// CollectRun drains the run decoder of one cluster prefix (plabel on
// SP, tag on SD) in batches of batchSize records.
func CollectRun(r *Relation, plabel uint128.Uint128, tag uint32, batchSize int) ([]Record, error) {
	h := heapRunIter{r: r, plabel: plabel, tagID: tag}
	h.seek()
	return collectRun(&h, batchSize)
}

// RunStart is one run of a cursor that has not been read: its cluster
// prefix (PLabel on SP, Tag on SD) and whether it has its position
// already, read by the planner's probe or a range's skip scan, or will
// seek it on the cursor's first Head.
type RunStart struct {
	PLabel     uint128.Uint128
	Tag        uint32
	Positioned bool
}

// RunStarts returns the runs of c, which must not have been read yet.
func RunStarts(c *Cursor) []RunStart {
	out := make([]RunStart, len(c.runs))
	for i := range c.runs {
		h := &c.runs[i].heapRunIter
		out[i] = RunStart{PLabel: h.plabel, Tag: h.tagID, Positioned: h.page != 0}
	}
	return out
}

package relstore

import (
	"container/heap"
	"sync"

	"repro/internal/keyenc"
	"repro/internal/pager"
	"repro/internal/uint128"
)

// BatchSize is the record-batch size of every engine stream: the most
// records one columnar heap page can hold. The densest page is a single
// SP run of minimal records — one byte in each of the four varint
// columns and no value bytes — after the page header, one directory
// entry and the run header; an SD record adds its 16-byte plabel, so SD
// pages hold at most 408. A heap-run scan returns one page's share of
// its selection per batch (heapRunIter.NextBatch), so a buffer of this
// size never splits a page: each page a stream touches is requested from
// the pool once and decoded once, and a query's page reads depend only
// on its plan and the data.
const BatchSize = (pager.PageSize - colPageHeader - colRunDirEnt - spRunHeader) / minColRecord

// MaxBatchSize is the batch the benchmark's per-layer decode probe
// reads with. It exists only for benchmark/ and goes with ROADMAP item
// 1 (the benchmark harness).
const MaxBatchSize = 4096

// BatchIter is the one scan API of a Relation: NextBatch fills dst with
// up to len(dst) consecutive records of the stream and returns how many
// it produced. A return of (0, nil) means the stream is exhausted.
//
// Every scan takes the query's *ExecContext; the records it decodes and
// the pages it touches are accounted there (a nil context is valid and
// discards the counts). A batch decodes all the records it needs from
// one heap page inside a single pager view, so a batch of records
// clustered on k pages costs k pool requests, not one per record. A
// BatchIter is not safe for concurrent use itself, but any number of
// them may run concurrently over one Relation.
type BatchIter interface {
	NextBatch(dst []Record) (int, error)
}

// Batch is an engine stream's BatchSize-record buffer. A stream takes
// one with GetBatch, reads every batch into it with Next, and gives it
// back with Release once, at end of stream; a stream abandoned early
// drops its buffer to the garbage collector.
type Batch struct {
	recs   []Record
	used   int  // records written since GetBatch: the prefix Release clears
	pooled bool // released; a second Release would hand it out twice
}

// idleBatches is the pool of released buffers. A buffer is allocated
// only when the list is empty, so the list never holds more buffers
// than were once in use at the same time: a warm query allocates no
// buffer however many queries run at once, and the pool never raises
// peak memory, though what a burst of queries held stays allocated. It
// is not a sync.Pool, which frees what stays idle across two garbage
// collections: a query loop that allocates a megabyte per query
// collects every few queries, and would reallocate the buffers that
// only some of its queries use.
var idleBatches struct {
	sync.Mutex
	list []*Batch
}

// GetBatch takes a released buffer from the pool, or allocates one when
// the pool has none.
func GetBatch() *Batch {
	idleBatches.Lock()
	defer idleBatches.Unlock()
	n := len(idleBatches.list)
	if n == 0 {
		return &Batch{recs: make([]Record, BatchSize)}
	}
	b := idleBatches.list[n-1]
	idleBatches.list[n-1] = nil
	idleBatches.list = idleBatches.list[:n-1]
	b.pooled = false
	return b
}

// Next reads bi's next batch into the buffer and returns it; an empty
// batch means the stream is exhausted. The records stay valid until the
// next call or Release.
func (b *Batch) Next(bi BatchIter) ([]Record, error) {
	n, err := bi.NextBatch(b.recs)
	if err != nil {
		b.used = len(b.recs) // a failed batch may have written anywhere
		return nil, err
	}
	b.used = max(b.used, n)
	return b.recs[:n], nil
}

// Release clears the prefix of the buffer that held records, so the
// pool keeps no value string reachable, and returns the buffer to the
// pool. Releasing a buffer twice panics: both holders would be handed
// the same memory.
func (b *Batch) Release() {
	if b.pooled {
		panic("relstore: Batch released twice")
	}
	clear(b.recs[:b.used])
	b.used, b.pooled = 0, true
	idleBatches.Lock()
	idleBatches.list = append(idleBatches.list, b)
	idleBatches.Unlock()
}

// ScanAllBatch iterates every record in cluster-key order. The index is
// probed for exactly one position (the first entry); the scan then walks
// the heap pages directly.
func (r *Relation) ScanAllBatch(ctx *ExecContext) BatchIter {
	return r.seekHeapRun(ctx, nil, uint128.Uint128{}, 0, true)
}

// ScanPLabelExactBatch iterates the records with plabel == p in start
// order. The heap is cluster-ordered and contiguous, so the scan seeks
// once via the index, then walks the heap pages directly — no index
// leaves past the seek. The relation must be plabel-clustered.
func (r *Relation) ScanPLabelExactBatch(ctx *ExecContext, p uint128.Uint128) BatchIter {
	return r.seekHeapRun(ctx, keyenc.Uint128(p), p, 0, false)
}

// ScanTagBatch iterates the records with the given tag id in start
// order, the same way. The relation must be tag-clustered.
func (r *Relation) ScanTagBatch(ctx *ExecContext, tagID uint32) BatchIter {
	return r.seekHeapRun(ctx, keyenc.Uint32(tagID), uint128.Uint128{}, tagID, false)
}

// --- k-way batch merge ---

// mergeBatchRun is one input of a batch merge: a batched source, the
// pooled buffer it is read into and the batch of it the merge is
// positioned in.
type mergeBatchRun struct {
	src   BatchIter
	batch *Batch // nil once released, when the run is exhausted
	cur   []Record
	i     int // next record of cur
}

// refill reads the run's next batch; reports whether records are
// available. An exhausted or failed run releases its buffer.
func (r *mergeBatchRun) refill() (bool, error) {
	recs, err := r.batch.Next(r.src)
	if err != nil || len(recs) == 0 {
		r.batch.Release()
		r.batch, r.cur = nil, nil
		return false, err
	}
	r.cur, r.i = recs, 0
	return true, nil
}

// MergeBatchesByStart combines start-ordered batched streams into one
// start-ordered batched stream (k-way heap merge); no runs make an
// empty stream. Start positions are unique document positions, so the
// merge order is total. It builds the document-order stream of every
// fragment whose selection spans several cluster runs: a P-label set or
// range on SP, every element tag on SD. Each run reads into a pooled
// buffer of its own, so no run splits a page, and gives it back when
// the run is exhausted.
func MergeBatchesByStart(runs []BatchIter) (BatchIter, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	m := &batchMergeIter{}
	for _, src := range runs {
		run := &mergeBatchRun{src: src, batch: GetBatch()}
		ok, err := run.refill()
		if err != nil {
			return nil, err
		}
		if ok {
			m.runs = append(m.runs, run)
		}
	}
	heap.Init(m)
	return m, nil
}

// batchMergeIter is a heap of positioned runs; NextBatch pops the global
// minimum repeatedly.
type batchMergeIter struct {
	runs []*mergeBatchRun
	err  error
}

func (m *batchMergeIter) Len() int { return len(m.runs) }
func (m *batchMergeIter) Less(i, j int) bool {
	return m.runs[i].cur[m.runs[i].i].Start < m.runs[j].cur[m.runs[j].i].Start
}
func (m *batchMergeIter) Swap(i, j int) { m.runs[i], m.runs[j] = m.runs[j], m.runs[i] }
func (m *batchMergeIter) Push(x any)    { m.runs = append(m.runs, x.(*mergeBatchRun)) }
func (m *batchMergeIter) Pop() any {
	x := m.runs[len(m.runs)-1]
	m.runs = m.runs[:len(m.runs)-1]
	return x
}

func (m *batchMergeIter) NextBatch(dst []Record) (int, error) {
	if m.err != nil {
		return 0, m.err
	}
	n := 0
	for n < len(dst) && len(m.runs) > 0 {
		top := m.runs[0]
		dst[n] = top.cur[top.i]
		n++
		top.i++
		if top.i >= len(top.cur) {
			ok, err := top.refill()
			if err != nil {
				m.err = err
				return 0, err
			}
			if !ok {
				heap.Pop(m)
				continue
			}
		}
		heap.Fix(m, 0)
	}
	return n, nil
}

// CollectBatches drains a batched stream into a slice.
func CollectBatches(bi BatchIter, batchSize int) ([]Record, error) {
	if batchSize <= 0 {
		batchSize = BatchSize
	}
	var out []Record
	buf := make([]Record, batchSize)
	for {
		n, err := bi.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

package relstore

import (
	"sync"

	"repro/internal/pager"
	"repro/internal/uint128"
)

// BatchSize is the buffer size of every cursor run: the most records
// one columnar heap page can hold. The densest page is a single SP run
// of minimal records — one byte in each of the four varint columns and
// no value bytes — after the page header, one directory entry and the
// run header; an SD record adds its 16-byte plabel, so SD pages hold at
// most 408. A run decoder returns one page's share of its selection per
// batch (heapRunIter.NextBatch), so a buffer of this size never splits
// a page: each page a cursor touches is requested from the pool once
// and decoded once, and a query's page reads depend only on its plan
// and the data.
const BatchSize = (pager.PageSize - colPageHeader - colRunDirEnt - spRunHeader) / minColRecord

// MaxBatchSize is the batch the benchmark's per-layer decode probe
// reads with. It exists only for benchmark/ and goes with ROADMAP item
// 1 (the benchmark harness).
const MaxBatchSize = 4096

// ScanAllBatch returns the run decoder over every record in cluster-key
// order: the index is probed for exactly one position (the first
// entry), then NextBatch walks the heap pages directly. It is a
// benchmark shim — only benchmark/'s per-layer decode probe reads a
// whole relation — and goes with ROADMAP items 1(d) and 2(d).
func (r *Relation) ScanAllBatch(ctx *ExecContext) *heapRunIter {
	h := &heapRunIter{r: r, ctx: ctx, matchAll: true}
	h.seek()
	return h
}

// ScanPLabels returns the cursor over the records whose P-label is one
// of labels, the selection of a P-label equality, set or range: one
// cluster run per label. The relation must be plabel-clustered. value
// (when non-nil) and level (when non-zero) are the fragment's local
// predicates, which the cursor applies as it reads.
func (r *Relation) ScanPLabels(ctx *ExecContext, labels []uint128.Uint128, value *string, level uint16) *Cursor {
	c := &Cursor{runs: make([]cursorRun, len(labels)), value: value, level: level}
	for i, p := range labels {
		c.runs[i].heapRunIter = heapRunIter{r: r, ctx: ctx, plabel: p}
	}
	return c
}

// ScanTags returns the cursor over the records whose tag id is one of
// tags, the selection of a tag or a wildcard, the same way. The
// relation must be tag-clustered.
func (r *Relation) ScanTags(ctx *ExecContext, tags []uint32, value *string, level uint16) *Cursor {
	c := &Cursor{runs: make([]cursorRun, len(tags)), value: value, level: level}
	for i, t := range tags {
		c.runs[i].heapRunIter = heapRunIter{r: r, ctx: ctx, tagID: t}
	}
	return c
}

// Cursor is the one scan of a fragment's selection that both engines
// read: its records in document (start) order, filtered by the
// fragment's value and level predicates. Every selection is a list of
// cluster runs. Each run seeks the clustered index once, then reads
// one heap page's share of the run at a time into a pooled BatchSize
// buffer of its own and filters it there; a heap of runs ordered by
// head start merges several runs, so it only ever compares records
// that passed the predicates. A run gives its buffer back when it is
// exhausted; a cursor abandoned early drops its buffers to the garbage
// collector.
//
// The cursor reads nothing until its first Head. The records it
// decodes and the pages it touches are accounted to the ExecContext it
// was opened with. A Cursor is not safe for concurrent use, but any
// number of cursors may read one Relation at once.
type Cursor struct {
	runs   []cursorRun   // every run, in selection order
	heap   []*cursorRun  // the runs that have a head, a min-heap by head start
	one    [1]*cursorRun // the heap of a one-run cursor, which needs no allocation
	value  *string
	head   *Record
	err    error
	level  uint16
	opened bool
}

// cursorRun is one cluster run of a cursor: its page decoder, the
// pooled buffer it reads into, and the records of the buffered page
// share that passed the cursor's predicates.
type cursorRun struct {
	heapRunIter
	buf *batch // nil once given back, when the run is exhausted
	cur []Record
	i   int // the run's head: cur[i]
}

func (r *cursorRun) start() uint32 { return r.cur[r.i].Start }

// KnownEmpty reports that the cursor has no runs, so it can produce no
// records: a range selection whose skip scan found no P-label. Engines
// use it to stop before reading any stream of the plan.
func (c *Cursor) KnownEmpty() bool { return len(c.runs) == 0 }

// Head returns the cursor's next record, or nil at the end of the
// stream or after an error (see Err). The record is valid until the
// next Advance.
func (c *Cursor) Head() *Record {
	if !c.opened {
		c.open()
	}
	return c.head
}

// Err returns the error that ended the stream, if any.
func (c *Cursor) Err() error { return c.err }

// Advance moves the cursor past the head Head returned, which must not
// be nil.
func (c *Cursor) Advance() {
	r := c.heap[0]
	if r.i++; r.i == len(r.cur) && !c.refill(r) {
		if c.err != nil {
			c.heap, c.head = nil, nil
			return
		}
		last := len(c.heap) - 1
		c.heap[0], c.heap[last] = c.heap[last], nil
		c.heap = c.heap[:last]
	}
	if len(c.heap) > 1 {
		c.down(0)
	}
	c.setHead()
}

// Drain hands f the cursor's records in start order and returns the
// cursor's error. Each slice is valid only during its call: the head
// run's buffered records up to the first that starts after another
// run's head — while one run is left, the rest of its page share.
func (c *Cursor) Drain(f func([]Record)) error {
	for c.Head() != nil {
		r := c.heap[0]
		j := len(r.cur)
		if len(c.heap) > 1 {
			next := c.heap[1].start()
			if len(c.heap) > 2 {
				next = min(next, c.heap[2].start())
			}
			for j = r.i + 1; j < len(r.cur) && r.cur[j].Start < next; j++ {
			}
		}
		f(r.cur[r.i:j])
		r.i = j - 1
		c.Advance()
	}
	return c.err
}

// open seeks every run, in selection order, then fills each run's
// buffer and heaps the runs that have a head.
func (c *Cursor) open() {
	c.opened = true
	for i := range c.runs {
		c.runs[i].seek()
	}
	if c.heap = c.one[:0]; len(c.runs) > 1 {
		c.heap = make([]*cursorRun, 0, len(c.runs))
	}
	for i := range c.runs {
		r := &c.runs[i]
		r.buf = getBatch()
		if c.refill(r) {
			c.heap = append(c.heap, r)
		} else if c.err != nil {
			c.heap = nil
			return
		}
	}
	for i := len(c.heap)/2 - 1; i >= 0; i-- {
		c.down(i)
	}
	c.setHead()
}

// refill reads run r's next page shares into its buffer until one has
// a record that passes the cursor's predicates, and reports whether r
// has a head. An exhausted or failed run gives its buffer back; a
// failure is kept in c.err, and ends the cursor.
func (c *Cursor) refill(r *cursorRun) bool {
	for {
		recs, err := r.buf.next(&r.heapRunIter)
		if err != nil || len(recs) == 0 {
			r.buf.release()
			r.buf, r.cur, c.err = nil, nil, err
			return false
		}
		if c.value != nil || c.level != 0 {
			kept := recs[:0]
			for _, rec := range recs {
				if (c.value == nil || rec.Data == *c.value) && (c.level == 0 || rec.Level == c.level) {
					kept = append(kept, rec)
				}
			}
			recs = kept
		}
		if len(recs) > 0 {
			r.cur, r.i = recs, 0
			return true
		}
	}
}

// down restores the heap order below position i. Start positions are
// unique document positions, so the order is total.
func (c *Cursor) down(i int) {
	h := c.heap
	for {
		m := i
		if l := 2*i + 1; l < len(h) && h[l].start() < h[m].start() {
			m = l
		}
		if r := 2*i + 2; r < len(h) && h[r].start() < h[m].start() {
			m = r
		}
		if m == i {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (c *Cursor) setHead() {
	c.head = nil
	if len(c.heap) > 0 {
		r := c.heap[0]
		c.head = &r.cur[r.i]
	}
}

// batch is a cursor run's BatchSize-record buffer. A run takes one with
// getBatch, reads every page share into it with next, and gives it back
// with release once, when the run is exhausted.
type batch struct {
	recs   []Record
	used   int  // records written since getBatch: the prefix release clears
	pooled bool // released; a second release would hand it out twice
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
	list []*batch
}

// getBatch takes a released buffer from the pool, or allocates one when
// the pool has none.
func getBatch() *batch {
	idleBatches.Lock()
	defer idleBatches.Unlock()
	n := len(idleBatches.list)
	if n == 0 {
		return &batch{recs: make([]Record, BatchSize)}
	}
	b := idleBatches.list[n-1]
	idleBatches.list[n-1] = nil
	idleBatches.list = idleBatches.list[:n-1]
	b.pooled = false
	return b
}

// next reads h's next page share into the buffer and returns it; an
// empty batch means the run is exhausted.
func (b *batch) next(h *heapRunIter) ([]Record, error) {
	n, err := h.NextBatch(b.recs)
	if err != nil {
		b.used = len(b.recs) // a failed batch may have written anywhere
		return nil, err
	}
	b.used = max(b.used, n)
	return b.recs[:n], nil
}

// release clears the prefix of the buffer that held records, so the
// pool keeps no value string reachable, and returns the buffer to the
// pool. Releasing a buffer twice panics: both holders would be handed
// the same memory.
func (b *batch) release() {
	if b.pooled {
		panic("relstore: batch released twice")
	}
	clear(b.recs[:b.used])
	b.used, b.pooled = 0, true
	idleBatches.Lock()
	idleBatches.list = append(idleBatches.list, b)
	idleBatches.Unlock()
}

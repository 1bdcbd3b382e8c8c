package relstore

import (
	"container/heap"

	"repro/internal/keyenc"
	"repro/internal/obs"
	"repro/internal/pbtree"
	"repro/internal/uint128"
)

// BatchSize is the record-batch size of every engine stream. It is
// fixed, so a query's page reads depend only on its plan and the data,
// never on buffer-pool state. 512 is a measured trade-off on the
// benchmark's auction workloads: smaller batches end mid-page more
// often, and a page split by a batch boundary is requested once per
// batch (256 pushed query_cold's page_reads_per_q past its bound);
// larger ones allocate buffers that small served queries never fill
// (1024 pushed serve_open's alloc_kb_per_q past its bound).
const BatchSize = 512

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

// fetchBatch decodes the records addressed by locs into dst (len(dst)
// must equal len(locs)). Runs of consecutive locators on the same heap
// page are decoded under one pager view, and runs of consecutive slots
// within it with one column-group pass each: the pool is consulted once
// per page run, not once per record. Every decoded record is accounted
// to ctx.
//
//blas:hotpath
func (r *Relation) fetchBatch(ctx *ExecContext, locs []Locator, dst []Record) error {
	tr := ctx.Trace()
	for i := 0; i < len(locs); {
		j := i + 1
		for j < len(locs) && locs[j].Page == locs[i].Page {
			j++
		}
		lo, hi := i, j
		err := r.f.ViewCounted(locs[lo].Page, ctx.pageCounters(), func(p []byte) error {
			begin := tr.Begin()
			for k := lo; k < hi; {
				m := k + 1
				for m < hi && locs[m].Slot == locs[m-1].Slot+1 {
					m++
				}
				s := int(locs[k].Slot)
				if err := decodeColSlots(p, r.meta.kind, s, s+(m-k), dst[k:m]); err != nil {
					return err
				}
				k = m
			}
			tr.End(obs.PhaseDecode, begin)
			return nil
		})
		if err != nil {
			return err
		}
		ctx.addVisitedN(uint64(hi - lo))
		tr.AddDecoded(hi - lo)
		i = j
	}
	return nil
}

// indexBatchIter drains a start-index scan in locator batches and
// decodes them with fetchBatch.
type indexBatchIter struct {
	r    *Relation
	ctx  *ExecContext
	it   *pbtree.Iter
	locs []Locator
	done bool
}

func (b *indexBatchIter) NextBatch(dst []Record) (int, error) {
	if b.done || len(dst) == 0 {
		return 0, nil
	}
	locs := b.locs[:0]
	for len(locs) < len(dst) && b.it.Next() {
		locs = append(locs, decodeLocator(b.it.Value()))
	}
	b.locs = locs
	if len(locs) < len(dst) {
		b.done = true
		if err := b.it.Err(); err != nil {
			return 0, err
		}
	}
	if len(locs) == 0 {
		return 0, nil
	}
	if err := b.r.fetchBatch(b.ctx, locs, dst[:len(locs)]); err != nil {
		return 0, err
	}
	return len(locs), nil
}

// clusterSeekKey returns the cluster-index key at which a scan of one
// cluster-key prefix (plabel or tag) restricted to starts >= lo begins.
func clusterSeekKey(prefix []byte, lo uint32) []byte {
	if lo == 0 {
		return prefix
	}
	return append(prefix, keyenc.Uint32(lo)...)
}

// ScanAllBatch iterates every record in cluster-key order. The index is
// probed for exactly one position (the first entry); the scan then walks
// the heap pages directly.
func (r *Relation) ScanAllBatch(ctx *ExecContext) BatchIter {
	return r.seekHeapRun(ctx, nil, uint128.Uint128{}, 0, 0, true)
}

// ScanPLabelExactBatch iterates the records with plabel == p in start
// order, restricted to those whose start lies in [lo, hi) (hi == 0 means
// unbounded). The restriction is pushed into the scan — records outside
// it are never decoded or counted — which is what lets a partitioned
// sweep split one stream across workers without reading any record
// twice. The heap is cluster-ordered and contiguous, so the scan seeks
// once via the index, then walks the heap pages directly, cutting on the
// packed starts — no index leaves past the seek. The relation must be
// plabel-clustered.
func (r *Relation) ScanPLabelExactBatch(ctx *ExecContext, p uint128.Uint128, lo, hi uint32) BatchIter {
	return r.seekHeapRun(ctx, clusterSeekKey(keyenc.Uint128(p), lo), p, 0, hi, false)
}

// ScanTagBatch iterates the records with the given tag id in start
// order, with the same [lo, hi) start restriction as
// ScanPLabelExactBatch. The relation must be tag-clustered.
func (r *Relation) ScanTagBatch(ctx *ExecContext, tagID uint32, lo, hi uint32) BatchIter {
	return r.seekHeapRun(ctx, clusterSeekKey(keyenc.Uint32(tagID), lo), uint128.Uint128{}, tagID, hi, false)
}

// ScanStartRangeBatch iterates the records with lo <= start < hi (hi == 0
// means unbounded) in document order via the start index.
func (r *Relation) ScanStartRangeBatch(ctx *ExecContext, lo, hi uint32) BatchIter {
	from := keyenc.Uint32(lo)
	var to []byte
	if hi != 0 {
		to = keyenc.Uint32(hi)
	}
	return &indexBatchIter{r: r, ctx: ctx, it: r.startIdx.ScanCounted(from, to, ctx.pageCounters())}
}

// --- k-way batch merge ---

// mergeBatchRun is one input of a batch merge: a batched source plus the
// buffered window it has been read into.
type mergeBatchRun struct {
	src BatchIter
	buf []Record
	n   int // valid records in buf
	i   int // next record
}

// refill loads the next batch; reports whether records are available.
func (r *mergeBatchRun) refill() (bool, error) {
	n, err := r.src.NextBatch(r.buf)
	if err != nil {
		return false, err
	}
	if n == 0 {
		return false, nil
	}
	r.n, r.i = n, 0
	return true, nil
}

// MergeBatchesByStart combines start-ordered batched streams into one
// start-ordered batched stream (k-way heap merge). Start positions are
// unique document positions, so the merge order is total. It builds the
// document-order streams of P-label set and range fragments, whose
// selections span several cluster runs.
func MergeBatchesByStart(runs []BatchIter) (BatchIter, error) {
	if len(runs) == 1 {
		return runs[0], nil
	}
	m := &batchMergeIter{}
	for _, src := range runs {
		run := &mergeBatchRun{src: src, buf: make([]Record, BatchSize)}
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
	return m.runs[i].buf[m.runs[i].i].Start < m.runs[j].buf[m.runs[j].i].Start
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
		dst[n] = top.buf[top.i]
		n++
		top.i++
		if top.i >= top.n {
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

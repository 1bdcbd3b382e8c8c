package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// sweepPart is one document-order partition of the sweep: the index
// range [from, to) of the materialized root records it owns plus the
// start interval [lo, hi) — hi == 0 means unbounded — its non-root
// streams are restricted to. streamRoot marks the sequential
// whole-document partition, whose root streams like every other node
// instead of replaying materialized records.
type sweepPart struct {
	root       core.Tuples[relstore.Record]
	from, to   int
	lo, hi     uint32
	streamRoot bool
}

// partitionRoot cuts the materialized (filtered) root stream into at
// most max document-order partitions, balanced by root-record count.
//
// Cut points are chosen only at the starts of top-level root elements —
// elements not contained in any earlier root element. That placement is
// the boundary-straddle guarantee: every element any sweep can push is
// contained in some root-stream element (the push condition demands an
// unbroken stack chain up to the root), every root element lies wholly
// inside one top-level interval, and no top-level interval spans a cut.
// So no stack item can straddle a cut, each partition's sweep sees
// exactly the stack states the sequential sweep would have at the same
// elements, and concatenating per-partition solutions in partition
// order reproduces the sequential solution lists exactly. A candidate
// cut that would split a nested run of root elements is simply deferred
// to the next top-level boundary.
func partitionRoot(recs core.Tuples[relstore.Record], max int) []sweepPart {
	n := recs.Len()
	if max <= 1 || n <= 1 {
		return []sweepPart{{root: recs, to: n}}
	}
	// Heads of top-level root elements: recs is start-ordered and
	// intervals nest, so a record starting after every earlier end is
	// contained in no earlier record.
	var heads []int
	var maxEnd uint32
	for i := 0; i < n; i++ {
		r := &recs.At(i)[0]
		if i == 0 || r.Start > maxEnd {
			heads = append(heads, i)
		}
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	nparts := max
	if nparts > len(heads) {
		nparts = len(heads)
	}
	if nparts <= 1 {
		return []sweepPart{{root: recs, to: n}}
	}
	target := (n + nparts - 1) / nparts
	parts := make([]sweepPart, 0, nparts)
	begin := 0 // record index where the current partition begins
	lo := uint32(0)
	for h := 1; h < len(heads) && len(parts) < nparts-1; h++ {
		if heads[h]-begin < target {
			continue
		}
		cut := recs.At(heads[h])[0].Start
		parts = append(parts, sweepPart{root: recs, from: begin, to: heads[h], lo: lo, hi: cut})
		begin, lo = heads[h], cut
	}
	return append(parts, sweepPart{root: recs, from: begin, to: n, lo: lo, hi: 0})
}

// sweepAll partitions the sweep across workers and returns the per-leaf
// path-solution lists in sequential sweep order. workers == 1 runs
// entirely on the calling goroutine and streams every node — the root
// stream is materialized only when partition cuts must be derived from
// it.
func (e *engine) sweepAll(ctx *relstore.ExecContext, workers int) ([]core.Tuples[relstore.Record], error) {
	if workers <= 1 {
		return e.sweepPartition(ctx, sweepPart{streamRoot: true})
	}

	rootRecs, err := e.root.stream.Collect(ctx, make([]relstore.Record, relstore.BatchSize))
	if err != nil {
		return nil, err
	}
	parts := partitionRoot(rootRecs, workers)
	tr := ctx.Trace()
	for _, part := range parts {
		tr.AddPartition(uint64(part.to - part.from))
	}

	// partitionRoot caps len(parts) at workers, so one goroutine per
	// partition is already the worker bound.
	results := make([][]core.Tuples[relstore.Record], len(parts))
	err = core.FanOut(len(parts), func(pi int) error {
		sols, err := e.sweepPartition(ctx, parts[pi])
		results[pi] = sols
		return err
	})
	if err != nil {
		return nil, err
	}

	// Stitch per-leaf solutions in partition (document) order.
	leafSols := results[0]
	for _, r := range results[1:] {
		for li := range leafSols {
			leafSols[li].AppendAll(r[li])
		}
	}
	return leafSols, nil
}

// sweepPartition runs one partition's stack-chain sweep. The root
// stream replays from memory; every other stream opens restricted to
// the partition's start interval and is read on the partition's own
// goroutine.
func (e *engine) sweepPartition(ctx *relstore.ExecContext, part sweepPart) ([]core.Tuples[relstore.Record], error) {
	st := &sweepState{
		eng:     e,
		streams: make([]*batchStream, len(e.nodes)),
		stacks:  make([][]stackItem, len(e.nodes)),
		sols:    make([]core.Tuples[relstore.Record], len(e.leaves)),
		scratch: make([]relstore.Record, e.maxDepth),
	}
	for li, leaf := range e.leaves {
		st.sols[li] = core.NewTuples[relstore.Record](len(leaf.path))
	}
	for i, n := range e.nodes {
		if n == e.root && !part.streamRoot {
			st.streams[i] = newBatchStream(&memSource{recs: part.root, i: part.from, j: part.to})
			continue
		}
		bi, err := n.stream.Open(ctx, part.lo, part.hi)
		if err != nil {
			return nil, err
		}
		st.streams[i] = newBatchStream(newSyncSource(bi, n.stream.Filter))
	}
	if err := st.sweep(); err != nil {
		return nil, err
	}
	return st.sols, nil
}

// sweepState is the mutable state of one partition's sweep.
type sweepState struct {
	eng     *engine
	streams []*batchStream
	stacks  [][]stackItem
	sols    []core.Tuples[relstore.Record] // per leaf: path solutions in emission order, stride = path length
	scratch []relstore.Record              // current path during solution collection
}

// sweep runs the stack machine over all streams in start order.
//
//blas:hotpath
func (st *sweepState) sweep() error {
	nodes := st.eng.nodes
	for {
		// Pick the non-exhausted stream with the smallest head start.
		q := -1
		var qStart uint32
		for i, s := range st.streams {
			if s.err != nil {
				return s.err
			}
			if s.eof {
				continue
			}
			if q < 0 || s.head().Start < qStart {
				q, qStart = i, s.head().Start
			}
		}
		if q < 0 {
			return nil
		}
		el := st.streams[q].head()

		// Global clean: pop every stack item whose interval ended before
		// el. Processing in ascending start order makes this safe — a
		// popped item can contain no future element.
		for i := range nodes {
			stk := st.stacks[i]
			for len(stk) > 0 && stk[len(stk)-1].rec.End < el.Start {
				stk = stk[:len(stk)-1]
			}
			st.stacks[i] = stk
		}

		// Push only when the chain above is unbroken: a parent element
		// arriving later cannot contain el.
		n := nodes[q]
		if n.parent == nil || len(st.stacks[n.parent.id]) > 0 {
			pi := -1
			if n.parent != nil {
				pi = len(st.stacks[n.parent.id]) - 1
			}
			st.stacks[q] = append(st.stacks[q], stackItem{rec: el, parentIdx: pi})
			if len(n.children) == 0 {
				st.collectSolutions(n)
				st.stacks[q] = st.stacks[q][:len(st.stacks[q])-1]
			}
		}
		st.streams[q].advance()
	}
}

// collectSolutions enumerates the root-to-leaf path solutions ending at
// the element just pushed onto leaf q, applying each edge's level-gap
// constraint, and appends them to the leaf's solution arena.
//
//blas:hotpath
func (st *sweepState) collectSolutions(q *tnode) {
	depth := len(q.path)
	stack := st.stacks[q.id]
	item := stack[len(stack)-1]
	st.scratch[depth-1] = item.rec
	st.climb(q, depth-2, item.parentIdx)
}

// climb binds path level `level` of leaf q to every stack item at or
// below limit that satisfies the edge to the level beneath it (already
// bound in scratch), recursing toward the root; past the root the
// scratch path is one complete solution.
//
//blas:hotpath
func (st *sweepState) climb(q *tnode, level, limit int) {
	cur := st.scratch[:len(q.path)]
	if level < 0 {
		st.sols[q.leafIdx].Append(cur, nil)
		return
	}
	childRec := &cur[level+1]
	edge := q.path[level+1].edge
	nstack := st.stacks[q.path[level].id]
	for i := 0; i <= limit && i < len(nstack); i++ {
		it := &nstack[i]
		// Items on the stack contain the child element by
		// construction; the edge's level constraint narrows the pick.
		if !edge.LevelOK(it.rec.Level, childRec.Level) {
			continue
		}
		cur[level] = it.rec
		st.climb(q, level-1, it.parentIdx)
	}
}

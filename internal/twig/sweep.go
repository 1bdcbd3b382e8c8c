package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// sweepStreams runs the stack-chain sweep over every node's stream on
// the calling goroutine and returns the per-leaf path-solution lists in
// emission order, and the return column of the return leaf's solutions.
func (e *engine) sweepStreams(ctx *relstore.ExecContext) ([]core.Tuples[core.Span], core.Tuples[relstore.Record], error) {
	st := newSweepState(e)
	for i, n := range e.nodes {
		bi, err := n.stream.Open(ctx)
		if err != nil {
			return nil, st.ret, err
		}
		st.streams[i] = newBatchStream(bi, n.stream.Filter)
	}
	err := st.sweep()
	return st.sols, st.ret, err
}

// sweepState is the mutable state of one sweep.
type sweepState struct {
	eng     *engine
	streams []*batchStream
	stacks  [][]stackItem
	sols    []core.Tuples[core.Span]     // per leaf: path solutions in emission order, stride = path length
	ret     core.Tuples[relstore.Record] // the return node's binding of each solution of leaf eng.retLeaf
	scratch []core.Span                  // current path during solution collection
	retRec  [1]relstore.Record           // return binding of the solution being climbed (return leaf only)
}

// newSweepState returns the empty state of a sweep over e, streams not
// yet opened.
func newSweepState(e *engine) *sweepState {
	st := &sweepState{
		eng:     e,
		streams: make([]*batchStream, len(e.nodes)),
		stacks:  make([][]stackItem, len(e.nodes)),
		sols:    make([]core.Tuples[core.Span], len(e.leaves)),
		ret:     core.NewTuples[relstore.Record](1),
		scratch: make([]core.Span, e.maxDepth),
	}
	for li, leaf := range e.leaves {
		st.sols[li] = core.NewTuples[core.Span](len(leaf.path))
	}
	return st
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
	item := &stack[len(stack)-1]
	st.bind(q, depth-1, item)
	st.climb(q, depth-2, item.parentIdx)
}

// bind binds path level `level` of leaf q to a stack item: its span in
// scratch and, at the return node of the return leaf, its record.
//
//blas:hotpath
func (st *sweepState) bind(q *tnode, level int, it *stackItem) {
	st.scratch[level] = core.SpanOf(&it.rec)
	if level == st.eng.retDepth && q.leafIdx == st.eng.retLeaf {
		st.retRec[0] = it.rec
	}
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
		if q.leafIdx == st.eng.retLeaf {
			st.ret.Append(st.retRec[:], nil)
		}
		return
	}
	childLevel := cur[level+1].Level
	edge := q.path[level+1].edge
	nstack := st.stacks[q.path[level].id]
	for i := 0; i <= limit && i < len(nstack); i++ {
		it := &nstack[i]
		// Items on the stack contain the child element by
		// construction; the edge's level constraint narrows the pick.
		if !edge.LevelOK(it.rec.Level, childLevel) {
			continue
		}
		st.bind(q, level, it)
		st.climb(q, level-1, it.parentIdx)
	}
}

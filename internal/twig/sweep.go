package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// sweepStreams runs the stack-chain sweep over every node's stream on
// the calling goroutine and returns the per-leaf path-solution lists in
// emission order.
func (e *engine) sweepStreams(ctx *relstore.ExecContext) ([]core.Tuples[relstore.Record], error) {
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
		bi, err := n.stream.Open(ctx)
		if err != nil {
			return nil, err
		}
		st.streams[i] = newBatchStream(bi, n.stream.Filter)
	}
	if err := st.sweep(); err != nil {
		return nil, err
	}
	return st.sols, nil
}

// sweepState is the mutable state of one sweep.
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

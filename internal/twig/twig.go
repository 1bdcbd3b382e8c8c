// Package twig implements the paper's second query engine (§5.3): a
// holistic twig join over start-ordered label streams, in the style of
// Bruno, Koudas & Srivastava's PathStack/TwigStack (SIGMOD 2002).
//
// The engine consumes the same ordered physical plans
// (planner.Physical) as the relational engine. Scan order does not
// affect the holistic sweep — every stream is swept in global start
// order regardless — but the engine honors the planner's emptiness
// proof (KnownEmpty returns before any stream is built) and terminates
// early when any prepared stream is known empty, skipping the sweep
// entirely. Each plan fragment becomes one twig node whose input stream
// is the fragment's selection delivered in document (start) order:
//
//	D-labeling mode: one per-tag stream from the SD relation, and for
//	                 a wildcard the element-tag runs of SD (k-way
//	                 merged into document order);
//	BLAS mode:       per-P-label-range streams from the SP relation
//	                 (k-way merged into document order).
//
// A single chain of stacks — one per twig node, items linked to the top
// of the parent stack at push time — sweeps all streams in global start
// order. Root-to-leaf path solutions are emitted whenever a leaf element
// lands on a non-broken chain into one span arena per leaf
// (core.Tuples[core.Span], Stride = path length): a climb and the merge
// read only intervals and levels. The leaf that owns the return node
// also appends that node's full record to a one-column return arena, at
// the same solution id. After the sweep, path solutions are joined on
// their shared prefixes into full twig matches. A partial match is a
// row of int32 solution ids, one per folded leaf, matched to the next
// leaf's solutions by binary search over its solution ids sorted by
// prefix, so the merge copies ids, never bindings, and the answer is a
// core.View of the return arena, which Store.Query's finalize reads
// once into its matches. Every solution, return and assignment chunk
// comes from the query's core.Arena, whose owner releases them all once
// the answer is copied out.
//
// # Cursors and one sweep
//
// Each node's stream is its fragment's relstore.Cursor
// (core.Store.PrepareFragmentStream), and the sweep drives the cursors
// directly: Head is the next record that passes the fragment's
// predicates, Advance moves past it. Each cluster run of a cursor reads
// one heap page's share of the selection at a time, under a single
// pager view, into a pooled buffer of its own and filters it there, so
// each page is requested once; the runs of a multi-run selection — the
// P-labels of a BLAS-mode set or range, the element tags of a
// wildcard — are merged by a heap of runs ordered by head start. Every
// pooled buffer goes back when its run ends. A query runs exactly one
// sweep, on the calling goroutine, so its visited elements and page
// reads depend only on its plan and the data.
//
// The engine reads every stream element exactly once, which is what the
// paper's "number of elements read" metric (Figs. 14-18) measures: in
// D-labeling mode every node carrying a query tag is read, in BLAS mode
// only the nodes matching each fragment's P-label selection. TwigStack's
// getNext skipping is deliberately not implemented — it suppresses some
// intermediate path solutions but reads the same elements, and the
// conservative sweep is correct for the generalized level-gap edges that
// BLAS plans carry.
//
// When the context carries an obs.Trace, Execute reports three
// wall-time spans — PhaseScan around stream preparation, PhaseSweep
// around the sweep, and PhaseJoin around the path-solution merge — that
// tile its execution time. Without a trace all reporting is a nil check
// and nothing more.
package twig

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// Execute is Run in an arena of its own, with the answer copied out
// into core.Result.Records before the arena is released, for callers
// that read records instead of the view (the benchmark's per-layer
// pipeline and tests). Result.Return is left empty. cfg is ignored; it
// exists only for benchmark/ and goes with ROADMAP item 1(d).
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, cfg core.ExecConfig) (*core.Result, error) {
	a := core.NewArena()
	defer a.Release()
	res, err := Run(ctx, a, st, p)
	if err != nil {
		return nil, err
	}
	res.Records, res.Return = res.Return.Records(), core.View{}
	return res, nil
}

// Run runs a physical plan against a store using the holistic twig
// join and returns the answer as a view of the return column. The
// plan's join order does not change the sweep (all streams
// advance in global start order), but the planner's emptiness proofs
// do: a KnownEmpty plan skips stream preparation entirely, and a stream
// that resolves to zero P-label runs skips the sweep and merge. Every
// path solution, return binding and assignment row is a chunk of arena
// a, which the caller releases once it has copied the answer out.
// Statistics accumulate in ctx (nil discards them); one ctx and arena per call
// makes concurrent Run calls over one store safe. The sweep runs on the
// calling goroutine and starts no other.
func Run(ctx *relstore.ExecContext, a *core.Arena, st *core.Store, p *planner.Physical) (*core.Result, error) {
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		return &core.Result{EarlyTerminated: p.ProbedEmpty()}, nil
	}
	tr := ctx.Trace()
	scanBegin := tr.Begin()
	eng, err := build(ctx, st, p)
	tr.End(obs.PhaseScan, scanBegin)
	if err != nil {
		return nil, err
	}
	for _, n := range eng.nodes {
		if n.stream.KnownEmpty() {
			// A run-less stream can bind nothing, and every twig node
			// must bind: skip the sweep and merge.
			return &core.Result{EarlyTerminated: true}, nil
		}
	}
	sweepBegin := tr.Begin()
	leafSols, ret, err := eng.sweepStreams(a)
	tr.End(obs.PhaseSweep, sweepBegin)
	if err != nil {
		return nil, err
	}
	joinBegin := tr.Begin()
	res := eng.merge(leafSols, ret)
	tr.End(obs.PhaseJoin, joinBegin)
	return res, nil
}

// tnode is one twig node: the static query structure plus the
// fragment's cursor. The sweep's mutable state (stacks, collected
// solutions) lives in sweepState; the cursor is the node's stream
// position.
type tnode struct {
	id       int
	frag     *translate.Fragment
	parent   *tnode
	children []*tnode
	edge     translate.Join // incoming edge (zero value for the root)

	stream *relstore.Cursor

	// leaf bookkeeping
	leafIdx int      // index into engine.leaves; -1 for inner nodes
	path    []*tnode // root..this (leaves only)
}

// stackItem is an element on its node's stack. It keeps the full
// record — the stacks are reused across elements, so this costs no
// per-solution allocation — and solutions take its span, or its record
// at the return node.
type stackItem struct {
	rec       relstore.Record
	parentIdx int // top of parent stack at push time; -1 when rootless
}

type engine struct {
	plan     *translate.Plan
	nodes    []*tnode
	root     *tnode
	leaves   []*tnode
	maxDepth int // longest root-to-leaf path

	// owner[id] is the first leaf, in DFS order, whose path covers
	// fragment id. The return fragment's owner, retLeaf, keeps the
	// return column; retDepth is the return node's level on its path.
	owner             []int
	retLeaf, retDepth int
}

// build assembles the twig node tree from the logical plan's fragments
// and the physical join order (the same edge set as the logical joins,
// so the resulting tree is identical — order only matters to the
// relational engine's pipeline).
func build(ctx *relstore.ExecContext, st *core.Store, phys *planner.Physical) (*engine, error) {
	p, joins := phys.Logical, phys.Joins
	eng := &engine{plan: p}
	eng.nodes = make([]*tnode, len(p.Fragments))
	for i, f := range p.Fragments {
		fs, err := st.PrepareFragmentStream(ctx, f)
		if err != nil {
			return nil, err
		}
		eng.nodes[i] = &tnode{
			id:      i,
			frag:    f,
			stream:  fs,
			leafIdx: -1,
		}
	}
	hasParent := make([]bool, len(p.Fragments))
	for _, j := range joins {
		a, d := eng.nodes[j.Anc], eng.nodes[j.Desc]
		if hasParent[j.Desc] {
			return nil, fmt.Errorf("twig: fragment %d has two parents", j.Desc)
		}
		hasParent[j.Desc] = true
		d.parent = a
		d.edge = j
		a.children = append(a.children, d)
	}
	for i, n := range eng.nodes {
		if !hasParent[i] {
			if eng.root != nil {
				return nil, fmt.Errorf("twig: plan has multiple roots (%d and %d)", eng.root.id, i)
			}
			eng.root = n
		}
	}
	if eng.root == nil {
		return nil, fmt.Errorf("twig: plan has no root")
	}
	// Precompute root-to-leaf paths and order leaves depth-first so that
	// the merge joins on shared prefixes.
	var dfs func(n *tnode, path []*tnode)
	dfs = func(n *tnode, path []*tnode) {
		path = append(path, n)
		if len(n.children) == 0 {
			n.path = append([]*tnode(nil), path...)
			n.leafIdx = len(eng.leaves)
			eng.leaves = append(eng.leaves, n)
			if len(path) > eng.maxDepth {
				eng.maxDepth = len(path)
			}
			return
		}
		for _, c := range n.children {
			dfs(c, path)
		}
	}
	dfs(eng.root, nil)
	eng.owner = make([]int, len(eng.nodes))
	for i := range eng.owner {
		eng.owner[i] = -1
	}
	for li, leaf := range eng.leaves {
		for _, n := range leaf.path {
			if eng.owner[n.id] < 0 {
				eng.owner[n.id] = li
			}
		}
	}
	eng.retLeaf = eng.owner[p.Return]
	if eng.retLeaf < 0 {
		return nil, fmt.Errorf("twig: return fragment %d not covered by any path", p.Return)
	}
	for eng.leaves[eng.retLeaf].path[eng.retDepth].id != p.Return {
		eng.retDepth++
	}
	return eng, nil
}

// merge joins the per-leaf path solutions (ordered as the sweep emits
// them) on their shared prefixes and projects the return column. A
// partial twig assignment is a join row of solution ids, one per folded
// leaf; the return leaf's ids index ret, the return column.
func (e *engine) merge(leafSols []core.Tuples[core.Span], ret core.Tuples[relstore.Record]) *core.Result {
	if len(e.leaves) == 1 {
		// The path solutions are the matches.
		return &core.Result{Return: core.DocOrder(ret, nil)}
	}

	// Fold the other leaves in DFS order. A leaf's covered nodes are the
	// root..branch-point prefix of its path, and in DFS order the previous
	// leaf's path runs through the branch point, so that leaf's solution
	// (an assignment's last column) binds the whole shared prefix.
	assigns := core.Rows(ret.Arena(), leafSols[0].Len())
	for li := 1; li < len(e.leaves); li++ {
		leaf := e.leaves[li]
		shared := 0
		for shared < len(leaf.path) && e.owner[leaf.path[shared].id] < li {
			shared++
		}
		assigns = foldLeaf(assigns, leafSols[li-1], leafSols[li], shared)
		if assigns.Len() == 0 {
			return &core.Result{}
		}
	}
	return &core.Result{Return: core.DocOrder(ret, assigns.Column(e.retLeaf))}
}

// comparePrefix orders two path solutions by the starts of their first
// shared bindings, deepest first — the order in which the sweep already
// emits the solutions of non-recursive data, so the sort usually finds
// them in place. Start positions identify nodes, so equal starts mean
// equal bindings.
func comparePrefix(a, b []core.Span, shared int) int {
	for i := shared - 1; i >= 0; i-- {
		if c := cmp.Compare(a[i].Start, b[i].Start); c != 0 {
			return c
		}
	}
	return 0
}

// foldLeaf joins the partial assignments with one more leaf's path
// solutions on their shared prefix of the given length. prev holds the
// solutions of the previous leaf, which every assignment's last column
// indexes and whose prefix binds the shared nodes. The leaf's solution
// ids are stable-sorted by prefix, so each distinct assignment prefix is
// one binary search for a run of matches in emission order; the output
// is assignment-major, then emission order — the order of a hash join
// probed by assignment. The output rows take their chunks from the
// assignments' arena.
//
//blas:hotpath
func foldLeaf(assigns core.Tuples[int32], prev, sols core.Tuples[core.Span], shared int) core.Tuples[int32] {
	sol := func(id int32) []core.Span { return sols.At(int(id)) }
	order := make([]int32, sols.Len())
	for i := range order {
		order[i] = int32(i)
	}
	byPrefix := func(a, b int32) int { return comparePrefix(sol(a), sol(b), shared) }
	if !slices.IsSortedFunc(order, byPrefix) {
		slices.SortStableFunc(order, byPrefix)
	}

	out := core.NewTuples[int32](assigns.Arena(), assigns.Stride+1)
	var next [1]int32
	last, lo, hi := int32(-1), 0, 0
	for ai, n := 0, assigns.Len(); ai < n; ai++ {
		row := assigns.At(ai)
		if p := row[len(row)-1]; p != last {
			// A new prefix: find its run of matching solutions.
			last = p
			key := prev.At(int(p))
			lo, hi = 0, len(order)
			for lo < hi {
				m := int(uint(lo+hi) >> 1)
				if comparePrefix(sol(order[m]), key, shared) < 0 {
					lo = m + 1
				} else {
					hi = m
				}
			}
			for hi = lo; hi < len(order) && comparePrefix(sol(order[hi]), key, shared) == 0; hi++ {
			}
		}
		for _, id := range order[lo:hi] {
			next[0] = id
			out.Append(row, next[:])
		}
	}
	return out
}

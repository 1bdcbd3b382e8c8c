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
//	D-labeling mode: one per-tag stream from the SD relation;
//	BLAS mode:       per-P-label-range streams from the SP relation
//	                 (k-way merged into document order).
//
// A single chain of stacks — one per twig node, items linked to the top
// of the parent stack at push time — sweeps all streams in global start
// order. Root-to-leaf path solutions are emitted whenever a leaf element
// lands on a non-broken chain into one record arena per leaf
// (core.Tuples, Stride = path length); after the sweep, path solutions
// are joined on their shared prefixes into full twig matches. A partial
// match is a row of int32 solution ids, one per folded leaf, matched to
// the next leaf's solutions by binary search over its solution ids
// sorted by prefix, so the merge copies ids, never records, and only
// the return column is copied out, once, into core.Result.Records.
//
// # Batched streams and the partitioned sweep
//
// Streams are read through the relstore batched scan layer
// (relstore.BatchIter via core.FragmentStream): records arrive in
// fixed-size batches, every heap page contributing to a batch is decoded
// under a single pager view, and the per-P-label runs of a BLAS-mode
// range selection are k-way merged batch-wise. Every stream is read
// once, in start order, on the goroutine that sweeps it.
//
// With core.ExecConfig.Parallelism > 1 the sweep is partitioned by
// document order: the root fragment's stream is collected first (into a
// chunked record arena; partitions are index ranges of it), cut points
// are chosen on top-level root-element boundaries, and each partition
// runs the full stack-chain sweep plus path-solution collection over
// the streams restricted to its start interval, one partition per
// worker goroutine. Because no element that can ever be pushed
// straddles such a cut (every pushed element is contained in some
// root-stream element, and no root element spans a cut), concatenating
// the per-partition path solutions in partition order reproduces the
// sequential sweep's solution lists exactly; the final merge join is
// unchanged.
//
// Statistics stay exact under parallelism: a record is fetched by
// exactly one partition (the start restriction is pushed into the
// cluster-index bounds), so ExecContext.Visited is identical at every
// Parallelism setting — the paper's "elements read" metric does not
// depend on the worker count. Page reads/misses remain self-consistent
// (atomic counters shared by all workers) but may vary slightly with
// the partition count, since each partition descends the indexes for
// its own sub-range.
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
// wall-time spans on the calling goroutine — PhaseScan around stream
// preparation, PhaseSweep around the (possibly partitioned) sweep, and
// PhaseJoin around the path-solution merge — that tile its execution
// time. The parallel sweep additionally records one partition entry per
// sweep partition (its root-record count). Without a trace all
// reporting is a nil check and nothing more.
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

// Execute runs a physical plan against a store using the holistic twig
// join. The plan's join order does not change the sweep (all streams
// advance in global start order), but the planner's emptiness proofs
// do: a KnownEmpty plan skips stream preparation entirely, and a stream
// that resolves to zero P-label runs skips the sweep and merge.
// Statistics accumulate in ctx (nil discards them); one ctx per call
// makes concurrent Execute calls over one store safe.
//
// cfg.Parallelism sets the sweep-partition count: 0 selects GOMAXPROCS,
// 1 runs fully sequentially (no extra goroutines), negative values are
// rejected. Each partition sweeps on one goroutine (core.FanOut) and
// reads all of its streams there, so a call runs at most P goroutines.
// The result is byte-identical at every setting.
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, cfg core.ExecConfig) (*core.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("twig: %w", err)
	}
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
	leafSols, err := eng.sweepAll(ctx, cfg.Workers())
	tr.End(obs.PhaseSweep, sweepBegin)
	if err != nil {
		return nil, err
	}
	joinBegin := tr.Begin()
	res, err := eng.merge(leafSols)
	tr.End(obs.PhaseJoin, joinBegin)
	return res, err
}

// tnode is one twig node: the static query structure plus the prepared
// stream opener. Per-sweep mutable state (stacks, stream positions,
// collected solutions) lives in sweepState, so any number of partition
// sweeps can share one tnode tree.
type tnode struct {
	id       int
	frag     *translate.Fragment
	parent   *tnode
	children []*tnode
	edge     translate.Join // incoming edge (zero value for the root)

	stream *core.FragmentStream

	// leaf bookkeeping
	leafIdx int      // index into engine.leaves; -1 for inner nodes
	path    []*tnode // root..this (leaves only)
}

type stackItem struct {
	rec       relstore.Record
	parentIdx int // top of parent stack at push time; -1 when rootless
}

type engine struct {
	st       *core.Store
	plan     *translate.Plan
	nodes    []*tnode
	root     *tnode
	leaves   []*tnode
	maxDepth int // longest root-to-leaf path
}

// build assembles the twig node tree from the logical plan's fragments
// and the physical join order (the same edge set as the logical joins,
// so the resulting tree is identical — order only matters to the
// relational engine's pipeline).
func build(ctx *relstore.ExecContext, st *core.Store, phys *planner.Physical) (*engine, error) {
	p, joins := phys.Logical, phys.Joins
	eng := &engine{st: st, plan: p}
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
	return eng, nil
}

// merge joins the per-leaf path solutions (ordered as the sequential
// sweep emits them) on their shared prefixes and projects the return
// fragment. A partial twig assignment is a join row of solution ids,
// one per folded leaf; records stay in the leaves' solution arenas until
// DocOrder copies the return column out.
func (e *engine) merge(leafSols []core.Tuples[relstore.Record]) (*core.Result, error) {
	// owner[id] is the first leaf whose path covers fragment id; the
	// fragment's binding is at its depth in that leaf's solutions.
	owner := make([]int, len(e.nodes))
	for i := range owner {
		owner[i] = -1
	}
	for li, leaf := range e.leaves {
		for _, n := range leaf.path {
			if owner[n.id] < 0 {
				owner[n.id] = li
			}
		}
	}
	ret := e.plan.Return
	l := owner[ret]
	if l < 0 {
		return nil, fmt.Errorf("twig: return fragment %d not covered by any path", ret)
	}
	depth := 0
	for e.leaves[l].path[depth].id != ret {
		depth++
	}
	if len(e.leaves) == 1 {
		// The path solutions are the matches.
		return &core.Result{Records: core.DocOrder(leafSols[0], depth, nil)}, nil
	}

	// Fold the other leaves in DFS order. A leaf's covered nodes are the
	// root..branch-point prefix of its path, and in DFS order the previous
	// leaf's path runs through the branch point, so that leaf's solution
	// (an assignment's last column) binds the whole shared prefix.
	assigns := core.Rows(leafSols[0].Len())
	for li := 1; li < len(e.leaves); li++ {
		leaf := e.leaves[li]
		shared := 0
		for shared < len(leaf.path) && owner[leaf.path[shared].id] < li {
			shared++
		}
		assigns = foldLeaf(assigns, leafSols[li-1], leafSols[li], shared)
		if assigns.Len() == 0 {
			return &core.Result{}, nil
		}
	}
	return &core.Result{Records: core.DocOrder(leafSols[l], depth, assigns.Column(l))}, nil
}

// comparePrefix orders two path solutions by the starts of their first
// shared bindings, deepest first — the order in which the sweep already
// emits the solutions of non-recursive data, so the sort usually finds
// them in place. Start positions identify nodes, so equal starts mean
// equal bindings.
func comparePrefix(a, b []relstore.Record, shared int) int {
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
// probed by assignment.
//
//blas:hotpath
func foldLeaf(assigns core.Tuples[int32], prev, sols core.Tuples[relstore.Record], shared int) core.Tuples[int32] {
	sol := func(id int32) []relstore.Record { return sols.At(int(id)) }
	order := make([]int32, sols.Len())
	for i := range order {
		order[i] = int32(i)
	}
	byPrefix := func(a, b int32) int { return comparePrefix(sol(a), sol(b), shared) }
	if !slices.IsSortedFunc(order, byPrefix) {
		slices.SortStableFunc(order, byPrefix)
	}

	out := core.NewTuples[int32](assigns.Stride + 1)
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

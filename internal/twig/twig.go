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
// lands on a non-broken chain; after the sweep, path solutions are
// merge-joined on their shared prefixes into full twig matches.
//
// # Batched streams and the partitioned sweep
//
// Streams are read through the relstore batched scan layer
// (relstore.BatchIter via core.FragmentStream): records arrive in
// fixed-size batches, every heap page contributing to a batch is decoded
// under a single pager view, and the per-P-label runs of a BLAS-mode
// range selection are k-way merged batch-wise. With
// core.ExecConfig.Parallelism > 1 the engine additionally parallelizes
// one query two ways:
//
//   - every twig node's stream gets an asynchronous prefetcher
//     goroutine that keeps a bounded number of batches in flight, so
//     per-fragment range scans and the BLAS-mode merge overlap their
//     backing-store misses instead of stalling the sweep;
//   - the sweep itself is partitioned by document order: the root
//     fragment's stream is materialized first, cut points are chosen on
//     top-level root-element boundaries, and each partition runs the
//     full stack-chain sweep plus path-solution collection over the
//     streams restricted to its start interval. Because no element that
//     can ever be pushed straddles such a cut (every pushed element is
//     contained in some root-stream element, and no root element spans
//     a cut), concatenating the per-partition path solutions in
//     partition order reproduces the sequential sweep's solution lists
//     exactly; the final merge join is unchanged.
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
// sweep partition (its root-record count) and accumulates
// PhasePrefetchStall: the cumulative time sweep goroutines spent
// blocked on prefetcher channels, summed across partitions, so it can
// exceed the wall-clock sweep span. Without a trace all reporting is a
// nil check and nothing more.
package twig

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// Result holds a query's answer: the return-node bindings in document
// order, deduplicated.
type Result struct {
	Records []relstore.Record
	// EarlyTerminated reports that an empty intermediate (a planner
	// proof or a stream that resolved to zero runs) let the engine skip
	// the sweep and merge entirely.
	EarlyTerminated bool
}

// Starts returns the start positions of the result records.
func (r *Result) Starts() []uint32 {
	out := make([]uint32, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Start
	}
	return out
}

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
// rejected. At P > 1 each active partition additionally runs one
// prefetcher goroutine per non-root stream, so a call uses up to
// P * (plan fragments) goroutines — prefetchers are I/O-bound and
// block on a bounded channel (depth chosen by the query's batch
// controller), so compute concurrency tracks P, not the product. The
// result is byte-identical at every setting.
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, cfg core.ExecConfig) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("twig: %w", err)
	}
	if ctx.BatchControl() == nil {
		ctx.SetBatchControl(cfg.BatchController())
	}
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		return &Result{EarlyTerminated: p.ProbedEmpty()}, nil
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
			return &Result{EarlyTerminated: true}, nil
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
	filter core.RecFilter

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
	rootEst  uint64 // planner's estimate of the root stream (0 = none)
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
			filter:  st.FragmentFilter(f),
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
	eng.rootEst = phys.Estimate(eng.root.id)
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
// fragment. Partial twig assignments live in one flat arena per fold
// step; col maps a covered fragment id to its column there.
func (e *engine) merge(leafSols []core.Tuples) (*Result, error) {
	col := make([]int, len(e.nodes))
	for i := range col {
		col[i] = -1
	}
	// The first leaf's path solutions are the initial assignments as
	// they stand (a single-leaf twig has nothing else to fold).
	for i, n := range e.leaves[0].path {
		col[n.id] = i
	}
	assigns := leafSols[0]

	// Fold the other leaves in DFS order; each leaf's shared prefix with
	// the already-covered node set is a prefix of its path.
	for li := 1; li < len(e.leaves); li++ {
		leaf, sols := e.leaves[li], leafSols[li]
		shared := 0
		for shared < len(leaf.path) && col[leaf.path[shared].id] >= 0 {
			shared++
		}
		sharedCols := make([]int, shared)
		for i := range sharedCols {
			sharedCols[i] = col[leaf.path[i].id]
		}
		// Index the leaf's solutions by the bindings of the shared
		// prefix as chains through one array: head[k]-1 is the first
		// solution with key k, next[i]-1 the one after solution i (0
		// ends a chain). Building back to front keeps every chain in
		// emission order.
		n := sols.Len()
		head := make(map[joinKey]int32, n)
		next := make([]int32, n)
		for i := n - 1; i >= 0; i-- {
			k := solutionKey(sols.At(i)[:shared])
			next[i] = head[k]
			head[k] = int32(i + 1)
		}
		joined := core.NewTuples(assigns.Stride + len(leaf.path) - shared)
		for ai, na := 0, assigns.Len(); ai < na; ai++ {
			a := assigns.At(ai)
			for si := head[assignKey(a, sharedCols)]; si != 0; si = next[si-1] {
				joined.Append(a, sols.At(int(si - 1))[shared:])
			}
		}
		for i := shared; i < len(leaf.path); i++ {
			col[leaf.path[i].id] = assigns.Stride + i - shared
		}
		assigns = joined
		if assigns.Len() == 0 {
			return &Result{}, nil
		}
	}
	ret := e.plan.Return
	if col[ret] < 0 {
		return nil, fmt.Errorf("twig: return fragment %d not covered by any path", ret)
	}
	return &Result{Records: core.DocOrder(assigns.Column(col[ret]))}, nil
}

// --- shared-prefix join keys ---

// joinKeyInline is how many prefix bindings a joinKey holds without
// allocating. Shared prefixes are root-to-branch-point paths, so real
// queries rarely exceed a handful of bindings.
const joinKeyInline = 8

// joinKey identifies a shared-prefix binding by the start positions of
// its records (start positions are unique document positions, so they
// determine the binding). Up to joinKeyInline starts pack into a
// comparable value — the merge's hash joins then build and look up keys
// with zero allocations; deeper prefixes spill the remainder into a
// string. TestJoinKeyZeroAlloc guards the no-allocation property.
type joinKey struct {
	n      uint16
	inline [joinKeyInline]uint32
	spill  string
}

// spillStarts packs the overflow starts into a comparable string
// (one allocation, only for solutions deeper than joinKeyInline).
//
//blas:hotpath
func spillStarts(starts []uint32) string {
	b := make([]byte, 0, 4*len(starts))
	for _, s := range starts {
		b = append(b, byte(s>>24), byte(s>>16), byte(s>>8), byte(s))
	}
	return string(b)
}

// solutionKey keys the shared prefix of one path solution.
//
//blas:hotpath
func solutionKey(recs []relstore.Record) joinKey {
	k := joinKey{n: uint16(len(recs))}
	if len(recs) > joinKeyInline {
		starts := make([]uint32, 0, len(recs)-joinKeyInline)
		for _, r := range recs[joinKeyInline:] {
			starts = append(starts, r.Start)
		}
		k.spill = spillStarts(starts)
		recs = recs[:joinKeyInline]
	}
	for i, r := range recs {
		k.inline[i] = r.Start
	}
	return k
}

// assignKey keys a partial twig assignment (one arena row) by the
// bindings in the given columns — the shared path prefix's.
//
//blas:hotpath
func assignKey(row []relstore.Record, cols []int) joinKey {
	k := joinKey{n: uint16(len(cols))}
	if len(cols) > joinKeyInline {
		starts := make([]uint32, 0, len(cols)-joinKeyInline)
		for _, c := range cols[joinKeyInline:] {
			starts = append(starts, row[c].Start)
		}
		k.spill = spillStarts(starts)
		cols = cols[:joinKeyInline]
	}
	for i, c := range cols {
		k.inline[i] = row[c].Start
	}
	return k
}

// Package relengine executes physical plans the way the paper's
// relational engine does (§5.2): each fragment is one indexed selection
// over the SP or SD relation, and fragments are combined with structural
// D-joins. The join operator is a stack-based structural merge join
// (Al-Khalifa et al., "stack-tree" family) that runs in
// O(inputs + output); a nested-loop D-join is provided for the ablation
// benchmark.
//
// The engine takes a planner.Physical and honors its order: fragment
// selections run in Physical.Scans order (most selective first under the
// greedy planner) and joins in Physical.Joins order, which the planner
// guarantees is a bound tree. Emptiness terminates execution early — a
// plan the planner proved empty runs zero scans, and an empty scan or
// join intermediate skips everything after it
// (core.Result.EarlyTerminated reports when that saved work).
//
// Fragment selections are issued strictly in plan order, one at a time
// (see scanFragments: the planner's order is an early-termination
// device, and it only works if a later scan cannot start before an
// earlier one is known non-empty), so page and visited counters are the
// same at every parallelism. Execution is data-parallel in the joins
// (cf. Sato et al., "Parallelization of XPath Queries using Modern
// XQuery Processors", arXiv:1806.07728): the structural merge join
// partitions its ancestor input by interval — descendants fall into
// exactly one partition's interval span, so partitions merge
// independently, one chunk per worker goroutine (core.FanOut).
// Options.Parallelism bounds the chunks; 1 recovers the fully sequential
// engine. Fragment selections read through the batched stream layer
// (core.FragmentStream.Collect over relstore.BatchIter), which decodes
// each heap page's records under a single pager view into one reused
// batch; the records a selection keeps are appended to the fragment's
// chunked binding arena (core.Tuples, Stride 1), which is never regrown
// or copied.
//
// Materialization is late: a D-join tuple is a row of int32 binding
// ids, one per joined fragment, so a join copies ids, never records;
// ordering an input by start yields a permutation of ids; and the
// return column is copied once, at exact size, into core.Result.Records.
//
// Per-query statistics accumulate in the relstore.ExecContext threaded
// through every scan, so concurrent Execute calls against one store
// never interfere. When the context carries an obs.Trace, the engine
// additionally reports two wall-time spans on the calling goroutine —
// PhaseScan around the fragment selections and PhaseJoin around the
// D-join pipeline — that tile its execution time; without a trace the
// reporting is a nil check and nothing more.
package relengine

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// JoinAlgorithm selects the D-join implementation.
type JoinAlgorithm int

// Join algorithms.
const (
	MergeJoin      JoinAlgorithm = iota // stack-based structural merge join
	NestedLoopJoin                      // quadratic baseline (ablation only)
)

// Options configures execution.
type Options struct {
	Join JoinAlgorithm
	// ExecConfig.Parallelism bounds the worker goroutines of a
	// partitioned merge join. 0 selects runtime.GOMAXPROCS(0); 1 runs
	// the engine fully sequentially. The result is identical either way.
	core.ExecConfig
}

// Execute runs a physical plan against a store. Statistics accumulate
// in ctx (nil discards them). Execute is safe to call concurrently with
// any other reads of the same store, provided each call gets its own
// ctx.
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, opts Options) (*core.Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("relengine: %w", err)
	}
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		// A probe-proven empty plan skips every scan and join — zero
		// page reads past planning. A statically empty plan never had
		// work to skip.
		return &core.Result{EarlyTerminated: p.ProbedEmpty()}, nil
	}
	workers := opts.Workers()
	tr := ctx.Trace()

	// Evaluate every fragment, most selective first.
	scanBegin := tr.Begin()
	bindings, err := scanFragments(ctx, st, p)
	tr.End(obs.PhaseScan, scanBegin)
	if err != nil {
		return nil, err
	}
	for _, b := range bindings {
		if b.Len() == 0 {
			// An empty fragment empties the plan (all joins are inner);
			// remaining scans were skipped and all join work is too.
			return &core.Result{EarlyTerminated: len(p.Joins) > 0 || len(lp.Fragments) > 1}, nil
		}
	}

	joinBegin := tr.Begin()
	defer tr.End(obs.PhaseJoin, joinBegin)

	if len(p.Joins) == 0 {
		return &core.Result{Records: core.DocOrder(bindings[lp.Return], 0, nil)}, nil
	}

	// Rows over the fragments joined so far, one binding id per fragment;
	// cols maps fragment id to row column. The first fragment's binding
	// ids are the initial one-column rows.
	cols := map[int]int{}
	first := p.Joins[0].Anc
	cols[first] = 0
	rows := core.Rows(bindings[first].Len())

	for ji, j := range p.Joins {
		ancCol, ok := cols[j.Anc]
		if !ok {
			return nil, fmt.Errorf("relengine: join order is not a tree (fragment %d not yet bound)", j.Anc)
		}
		in := joinInput{rows: rows, ancCol: ancCol, anc: bindings[j.Anc], descs: bindings[j.Desc], j: j}
		switch opts.Join {
		case NestedLoopJoin:
			rows = nestedLoopJoin(&in)
		default:
			rows = structuralMergeJoin(&in, workers)
		}
		cols[j.Desc] = len(cols)
		if rows.Len() == 0 {
			return &core.Result{EarlyTerminated: ji < len(p.Joins)-1}, nil
		}
	}

	retCol, ok := cols[lp.Return]
	if !ok {
		return nil, fmt.Errorf("relengine: return fragment %d not joined", lp.Return)
	}
	return &core.Result{Records: core.DocOrder(bindings[lp.Return], 0, rows.Column(retCol))}, nil
}

// scanFragments evaluates the plan's fragment selections one after the
// other in Physical.Scans order on the calling goroutine, stopping at
// the first empty one. The order is the planner's whole point — the
// most selective fragment runs first, so a cheap scan that comes back
// empty skips the expensive ones — and it only holds if scan k+1 cannot
// start before scan k is known non-empty; racing the scans would read
// the large fragments the order exists to avoid, and make the page and
// visited counters depend on scheduling. Parallelism is spent inside
// the D-joins instead. Every scan decodes into the same batch buffer.
func scanFragments(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical) ([]core.Tuples[relstore.Record], error) {
	frags := p.Logical.Fragments
	bindings := make([]core.Tuples[relstore.Record], len(frags))
	buf := make([]relstore.Record, relstore.BatchSize)
	for _, i := range p.Scans {
		fs, err := st.PrepareFragmentStream(ctx, frags[i])
		if err != nil {
			return nil, err
		}
		recs, err := fs.Collect(ctx, buf)
		if err != nil {
			return nil, err
		}
		if recs.Len() == 0 {
			// Empty selection: the whole plan is empty, skip the rest.
			return bindings, nil
		}
		bindings[i] = recs
	}
	return bindings, nil
}

// joinInput is one D-join's operands: the rows joined so far, the column
// of their ancestor binding, and the binding arenas of the ancestor and
// descendant fragments that row ids and descendant ids index. The merge
// join adds both inputs' start orders.
type joinInput struct {
	rows   core.Tuples[int32]
	ancCol int
	anc    core.Tuples[relstore.Record]
	descs  core.Tuples[relstore.Record]
	j      translate.Join

	rowOrder, descOrder []int32 // core.SortedBy permutations; nil = already in order
}

// ancRec returns the ancestor binding of row r.
func (in *joinInput) ancRec(r int32) *relstore.Record {
	return in.anc.Get(int(*in.rows.Get(int(r), in.ancCol)), 0)
}

// row returns the k-th row id in ancestor start order.
func (in *joinInput) row(k int) int32 { return orderAt(in.rowOrder, k) }

// desc returns the k-th descendant id in start order and its binding.
func (in *joinInput) desc(k int) (int32, *relstore.Record) {
	id := orderAt(in.descOrder, k)
	return id, in.descs.Get(int(id), 0)
}

// orderAt returns position k of a start order: perm[k], or k itself
// when perm is nil (the ids were already in order).
func orderAt(perm []int32, k int) int32 {
	if perm == nil {
		return int32(k)
	}
	return perm[k]
}

// Partition thresholds for the parallel merge join: below these input
// sizes the goroutine overhead dominates the merge work.
const (
	minParallelTuples = 64
	minParallelDescs  = 512
)

// structuralMergeJoin extends each row with the descendants of its
// ancCol binding. Both inputs are put in start order — as permutations
// of row and descendant ids, never copies — then merged with a stack of
// open ancestors: amortized linear plus output.
//
// With workers > 1 and large-enough inputs, the sorted ancestor rows
// are split into contiguous chunks and merged concurrently. A descendant
// d joins row t iff t.start < d.start < t.end, and every row lives
// in exactly one chunk, so giving each chunk the descendants whose
// starts fall inside the chunk's interval span [first start, max end)
// reproduces the sequential pairing exactly, with no duplicates.
func structuralMergeJoin(in *joinInput, workers int) core.Tuples[int32] {
	n, nd := in.rows.Len(), in.descs.Len()
	in.rowOrder = core.SortedBy(n, func(i int) uint32 { return in.ancRec(int32(i)).Start })
	// Scans clustered by {plabel,start} are only start-sorted per plabel
	// run; order the descendants by start.
	in.descOrder = core.SortedBy(nd, func(i int) uint32 { return in.descs.Get(i, 0).Start })

	if workers <= 1 || n < minParallelTuples || nd < minParallelDescs {
		return mergeJoinChunk(in, 0, n, 0, nd)
	}

	chunks := workers
	if chunks > n/2 {
		chunks = n / 2
	}
	parts := make([]core.Tuples[int32], chunks)
	_ = core.FanOut(chunks, func(c int) error { // chunks never fail
		lo, hi := c*n/chunks, (c+1)*n/chunks
		minStart := in.ancRec(in.row(lo)).Start
		maxEnd := uint32(0)
		for k := lo; k < hi; k++ {
			maxEnd = max(maxEnd, in.ancRec(in.row(k)).End)
		}
		// Descendant candidates for this chunk: minStart < start < maxEnd.
		descStart := func(k int) uint32 { _, d := in.desc(k); return d.Start }
		from := sort.Search(nd, func(k int) bool { return descStart(k) > minStart })
		to := sort.Search(nd, func(k int) bool { return descStart(k) >= maxEnd })
		parts[c] = mergeJoinChunk(in, lo, hi, from, to)
		return nil
	})

	out := parts[0]
	for _, p := range parts[1:] {
		out.AppendAll(p)
	}
	return out
}

// openAnc is an ancestor row on the merge stack, with its binding.
type openAnc struct {
	row int32
	rec *relstore.Record
}

// mergeJoinChunk runs the stack-based structural merge sweep over the
// rows at positions [lo, hi) of the ancestor start order and the
// descendants at positions [dlo, dhi) of theirs, and returns the joined
// rows: an input row extended by one descendant id.
//
//blas:hotpath
func mergeJoinChunk(in *joinInput, lo, hi, dlo, dhi int) core.Tuples[int32] {
	out := core.NewTuples[int32](in.rows.Stride + 1)
	var stack []openAnc // outermost first
	var desc [1]int32
	ti := lo
	for dk := dlo; dk < dhi; dk++ {
		did, d := in.desc(dk)
		// Open all ancestor rows that start before d.
		for ; ti < hi; ti++ {
			r := in.row(ti)
			a := in.ancRec(r)
			if a.Start >= d.Start {
				break
			}
			stack = append(stack, openAnc{row: r, rec: a})
		}
		// Close those that ended before d.
		live := stack[:0]
		for _, o := range stack {
			if o.rec.End > d.Start {
				live = append(live, o)
			}
		}
		stack = live
		// Every remaining open row's interval contains d (intervals of a
		// well-formed document nest, so start < d.start && end > d.start
		// implies end > d.end).
		desc[0] = did
		for _, o := range stack {
			if o.rec.End <= d.End {
				// Defensive: ill-nested inputs (possible only with a
				// corrupted store) must not produce false positives.
				continue
			}
			if in.j.LevelOK(o.rec.Level, d.Level) {
				out.Append(in.rows.At(int(o.row)), desc[:])
			}
		}
	}
	return out
}

// nestedLoopJoin is the quadratic D-join used by the ablation benchmark.
func nestedLoopJoin(in *joinInput) core.Tuples[int32] {
	out := core.NewTuples[int32](in.rows.Stride + 1)
	var desc [1]int32
	for r := 0; r < in.rows.Len(); r++ {
		a := in.ancRec(int32(r))
		for di := 0; di < in.descs.Len(); di++ {
			d := in.descs.Get(di, 0)
			if a.Start < d.Start && a.End > d.End && in.j.LevelOK(a.Level, d.Level) {
				desc[0] = int32(di)
				out.Append(in.rows.At(r), desc[:])
			}
		}
	}
	return out
}

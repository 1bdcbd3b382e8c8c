// Package relengine executes physical plans the way the paper's
// relational engine does (§5.2): each fragment is one indexed selection
// over the SP or SD relation, and fragments are combined with structural
// D-joins. The join operator is a stack-based structural merge join
// (Al-Khalifa et al., "stack-tree" family) that runs in
// O(inputs + output). The tests keep a nested-loop D-join as its
// reference and as the ablation benchmark's baseline.
//
// The engine takes a planner.Physical and honors its order: fragment
// selections run in Physical.Scans order (most selective first under the
// greedy planner) and joins in Physical.Joins order, which the planner
// guarantees is a bound tree. Emptiness terminates execution early — a
// plan the planner proved empty runs zero scans, and an empty scan or
// join intermediate skips everything after it
// (core.Result.EarlyTerminated reports when that saved work).
//
// A query runs on its calling goroutine, as the paper's D-join does:
// fragment selections are issued strictly in plan order, one at a time
// (see scanFragments: the planner's order is an early-termination
// device, and it only works if a later scan cannot start before an
// earlier one is known non-empty), and each D-join is one sequential
// stack merge. Each fragment selection drains the fragment's
// relstore.Cursor (core.Store.PrepareFragmentStream): each cluster run
// reads one heap page's share of the selection at a time, under a
// single pager view, into a pooled buffer of its own, and filters it
// there, so each page is requested once; a selection of one run hands
// each filtered page share to its bindings whole. A cursor gives its
// buffers back as it ends, so a plan of single-run fragments holds one
// buffer at a time. The bindings a selection keeps are appended to the
// fragment's chunked binding arena (core.Bindings), which is never
// regrown or copied. Its chunks, and those of every join's rows, come
// from the query's core.Arena, whose owner releases them all once the
// answer is copied out.
//
// Bindings are narrow and materialization is late. A D-join reads only
// intervals and levels, so every fragment but the return one binds a
// 12-byte core.Span; the return fragment, on whichever side of its
// joins it sits, keeps its full records for finalize. A D-join tuple is
// a row of int32 binding ids, one per joined fragment, so a join copies
// ids, never bindings; ordering an input by start yields a permutation
// of ids; and the answer is a core.View of the return arena, which
// Store.Query's finalize reads once into its matches.
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

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// Options configures Execute.
type Options struct {
	// ExecConfig is ignored. It exists only for benchmark/ and goes
	// with ROADMAP item 1(d).
	core.ExecConfig
}

// Execute is Run in an arena of its own, with the answer copied out
// into core.Result.Records before the arena is released, for callers
// that read records instead of the view (the benchmark's per-layer
// pipeline and tests). Result.Return is left empty.
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, opts Options) (*core.Result, error) {
	a := core.NewArena()
	defer a.Release()
	res, err := Run(ctx, a, st, p)
	if err != nil {
		return nil, err
	}
	res.Records, res.Return = res.Return.Records(), core.View{}
	return res, nil
}

// Run runs a physical plan against a store and returns the answer as a
// view of the return fragment's bindings. Every binding and join row is
// a chunk of arena a, which the caller releases once it has copied the
// answer out. Statistics accumulate in ctx (nil discards them). Run is
// safe to call concurrently with any other reads of the same store,
// provided each call gets its own ctx and arena.
func Run(ctx *relstore.ExecContext, a *core.Arena, st *core.Store, p *planner.Physical) (*core.Result, error) {
	return run(ctx, a, st, p, mergeJoin)
}

// run is Run with its D-joins run by join, so tests can drive whole
// plans through a reference join. join takes its input by value:
// called through a func value, a pointer would move every join's input
// to the heap.
func run(ctx *relstore.ExecContext, a *core.Arena, st *core.Store, p *planner.Physical, join func(joinInput) core.Tuples[int32]) (*core.Result, error) {
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		// A probe-proven empty plan skips every scan and join — zero
		// page reads past planning. A statically empty plan never had
		// work to skip.
		return &core.Result{EarlyTerminated: p.ProbedEmpty()}, nil
	}
	tr := ctx.Trace()

	// Evaluate every fragment, most selective first.
	scanBegin := tr.Begin()
	bindings, err := scanFragments(ctx, a, st, p)
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
		return &core.Result{Return: core.DocOrder(bindings[lp.Return].Recs, nil)}, nil
	}

	// Rows over the fragments joined so far, one binding id per fragment;
	// cols maps fragment id to row column. The first fragment's binding
	// ids are the initial one-column rows.
	cols := map[int]int{}
	first := p.Joins[0].Anc
	cols[first] = 0
	rows := core.Rows(a, bindings[first].Len())

	for ji, j := range p.Joins {
		ancCol, ok := cols[j.Anc]
		if !ok {
			return nil, fmt.Errorf("relengine: join order is not a tree (fragment %d not yet bound)", j.Anc)
		}
		rows = join(joinInput{rows: rows, ancCol: ancCol, anc: &bindings[j.Anc], descs: &bindings[j.Desc], j: j})
		cols[j.Desc] = len(cols)
		if rows.Len() == 0 {
			return &core.Result{EarlyTerminated: ji < len(p.Joins)-1}, nil
		}
	}

	retCol, ok := cols[lp.Return]
	if !ok {
		return nil, fmt.Errorf("relengine: return fragment %d not joined", lp.Return)
	}
	return &core.Result{Return: core.DocOrder(bindings[lp.Return].Recs, rows.Column(retCol))}, nil
}

// scanFragments evaluates the plan's fragment selections one after the
// other in Physical.Scans order on the calling goroutine, stopping at
// the first empty one. The order is the planner's whole point — the
// most selective fragment runs first, so a cheap scan that comes back
// empty skips the expensive ones — and it only holds if scan k+1 cannot
// start before scan k is known non-empty; racing the scans would read
// the large fragments the order exists to avoid, and make the page and
// visited counters depend on scheduling. Each scan drains its
// fragment's cursor to the end, so its run buffers are back in the pool
// before the next scan starts, and binds into chunks of a: the return
// fragment records, every other fragment spans.
func scanFragments(ctx *relstore.ExecContext, a *core.Arena, st *core.Store, p *planner.Physical) ([]core.Bindings, error) {
	frags := p.Logical.Fragments
	bindings := make([]core.Bindings, len(frags))
	for _, i := range p.Scans {
		cur, err := st.PrepareFragmentStream(ctx, frags[i])
		if err != nil {
			return nil, err
		}
		b := core.NewBindings(a, i == p.Logical.Return)
		if err := cur.Drain(b.Extend); err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			// Empty selection: the whole plan is empty, skip the rest.
			return bindings, nil
		}
		bindings[i] = b
	}
	return bindings, nil
}

// joinInput is one D-join's operands: the rows joined so far, the column
// of their ancestor binding, and the binding arenas of the ancestor and
// descendant fragments that row ids and descendant ids index; either may
// be the return fragment's record arena. The merge join adds both
// inputs' start orders.
type joinInput struct {
	rows   core.Tuples[int32]
	ancCol int
	anc    *core.Bindings
	descs  *core.Bindings
	j      translate.Join

	rowOrder, descOrder []int32 // core.SortedBy permutations; nil = already in order
}

// ancSpan returns the ancestor binding of row r.
func (in *joinInput) ancSpan(r int32) core.Span {
	return in.anc.SpanAt(int(*in.rows.Get(int(r), in.ancCol)))
}

// row returns the k-th row id in ancestor start order.
func (in *joinInput) row(k int) int32 { return orderAt(in.rowOrder, k) }

// desc returns the k-th descendant id in start order and its binding.
func (in *joinInput) desc(k int) (int32, core.Span) {
	id := orderAt(in.descOrder, k)
	return id, in.descs.SpanAt(int(id))
}

// orderAt returns position k of a start order: perm[k], or k itself
// when perm is nil (the ids were already in order).
func orderAt(perm []int32, k int) int32 {
	if perm == nil {
		return int32(k)
	}
	return perm[k]
}

// openAnc is an ancestor row on the merge stack, with its binding.
type openAnc struct {
	row  int32
	span core.Span
}

// mergeJoin extends each row with the descendants of its ancCol
// binding, and returns the joined rows: an input row extended by one
// descendant id. Both inputs are put in start order — as permutations
// of row and descendant ids, never copies — then merged with a stack of
// open ancestors: amortized linear plus output. The joined rows take
// their chunks from the input rows' arena.
//
//blas:hotpath
func mergeJoin(in joinInput) core.Tuples[int32] {
	n, nd := in.rows.Len(), in.descs.Len()
	in.rowOrder = core.SortedBy(n, func(i int) uint32 { return in.ancSpan(int32(i)).Start })
	// Fragment streams deliver bindings in start order, so the
	// descendant check usually finds them in place; rows carried
	// through earlier joins are in those joins' order.
	in.descOrder = core.SortedBy(nd, func(i int) uint32 { return in.descs.SpanAt(i).Start })

	out := core.NewTuples[int32](in.rows.Arena(), in.rows.Stride+1)
	var stack []openAnc // outermost first
	var desc [1]int32
	ti := 0
	for dk := 0; dk < nd; dk++ {
		did, d := in.desc(dk)
		// Open all ancestor rows that start before d.
		for ; ti < n; ti++ {
			r := in.row(ti)
			a := in.ancSpan(r)
			if a.Start >= d.Start {
				break
			}
			stack = append(stack, openAnc{row: r, span: a})
		}
		// Close those that ended before d.
		live := stack[:0]
		for _, o := range stack {
			if o.span.End > d.Start {
				live = append(live, o)
			}
		}
		stack = live
		// Every remaining open row's interval contains d (intervals of a
		// well-formed document nest, so start < d.start && end > d.start
		// implies end > d.end).
		desc[0] = did
		for _, o := range stack {
			if o.span.End <= d.End {
				// Defensive: ill-nested inputs (possible only with a
				// corrupted store) must not produce false positives.
				continue
			}
			if in.j.LevelOK(o.span.Level, d.Level) {
				out.Append(in.rows.At(int(o.row)), desc[:])
			}
		}
	}
	return out
}

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
// join intermediate skips everything after it (Result.EarlyTerminated
// reports when that saved work).
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
// independently. Options.Parallelism bounds the pool; 1 recovers the
// fully sequential engine. Fragment selections read through the batched
// stream layer (core.FragmentStream over relstore.BatchIter), which
// decodes each heap page's records under a single pager view, straight
// into the fragment's binding slice; join intermediates live in flat
// core.Tuples arenas.
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
	"sync"

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
	// ExecConfig.Parallelism bounds the worker pool used for
	// partitioned merge joins. 0 selects runtime.GOMAXPROCS(0); 1 runs
	// the engine fully sequentially. The result is identical either way.
	core.ExecConfig
}

// Result holds a query's answer.
type Result struct {
	// Records are the return-node bindings, deduplicated, in document
	// order.
	Records []relstore.Record
	// EarlyTerminated reports that an empty intermediate (a planner
	// proof, an empty fragment scan, or an empty join result) let the
	// engine skip remaining scan or join work.
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

// Execute runs a physical plan against a store. Statistics accumulate
// in ctx (nil discards them). Execute is safe to call concurrently with
// any other reads of the same store, provided each call gets its own
// ctx.
func Execute(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical, opts Options) (*Result, error) {
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("relengine: %w", err)
	}
	lp := p.Logical
	if p.KnownEmpty || lp.Empty() {
		// A probe-proven empty plan skips every scan and join — zero
		// page reads past planning. A statically empty plan never had
		// work to skip.
		return &Result{EarlyTerminated: p.ProbedEmpty()}, nil
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
		if len(b) == 0 {
			// An empty fragment empties the plan (all joins are inner);
			// remaining scans were skipped and all join work is too.
			return &Result{EarlyTerminated: len(p.Joins) > 0 || len(lp.Fragments) > 1}, nil
		}
	}

	joinBegin := tr.Begin()
	defer tr.End(obs.PhaseJoin, joinBegin)

	if len(p.Joins) == 0 {
		return &Result{Records: core.DocOrder(bindings[lp.Return])}, nil
	}

	// Tuples over the fragments joined so far. cols maps fragment id to
	// tuple column. The first fragment's bindings are the initial
	// one-column arena as they stand.
	cols := map[int]int{}
	first := p.Joins[0].Anc
	cols[first] = 0
	tuples := core.TuplesOf(bindings[first], 1)

	for ji, j := range p.Joins {
		ancCol, ok := cols[j.Anc]
		if !ok {
			return nil, fmt.Errorf("relengine: join order is not a tree (fragment %d not yet bound)", j.Anc)
		}
		switch opts.Join {
		case NestedLoopJoin:
			tuples = nestedLoopJoin(tuples, ancCol, bindings[j.Desc], j)
		default:
			tuples = structuralMergeJoin(tuples, ancCol, bindings[j.Desc], j, workers)
		}
		cols[j.Desc] = len(cols)
		if tuples.Len() == 0 {
			return &Result{EarlyTerminated: ji < len(p.Joins)-1}, nil
		}
	}

	retCol, ok := cols[lp.Return]
	if !ok {
		return nil, fmt.Errorf("relengine: return fragment %d not joined", lp.Return)
	}
	return &Result{Records: core.DocOrder(tuples.Column(retCol))}, nil
}

// scanFragments evaluates the plan's fragment selections one after the
// other in Physical.Scans order on the calling goroutine, stopping at
// the first empty one. The order is the planner's whole point — the
// most selective fragment runs first, so a cheap scan that comes back
// empty skips the expensive ones — and it only holds if scan k+1 cannot
// start before scan k is known non-empty; racing the scans would read
// the large fragments the order exists to avoid, and make the page and
// visited counters depend on scheduling. Parallelism is spent inside
// the D-joins instead.
func scanFragments(ctx *relstore.ExecContext, st *core.Store, p *planner.Physical) ([][]relstore.Record, error) {
	frags := p.Logical.Fragments
	bindings := make([][]relstore.Record, len(frags))
	for _, i := range p.Scans {
		recs, err := scanFragment(ctx, st, frags[i], p.Estimate(i))
		if err != nil {
			return nil, err
		}
		if len(recs) == 0 {
			// Empty selection: the whole plan is empty, skip the rest.
			return bindings, nil
		}
		bindings[i] = recs
	}
	return bindings, nil
}

// scanFragment evaluates one fragment's selection plus local predicates
// through the shared batched stream layer: records arrive batch-wise
// with one pager view per heap-page run (instead of one per record),
// P-label range/set selections are merged into document order
// batch-wise as well, and each batch is decoded into, and filtered in,
// its final place in a result presized from the planner's estimate.
func scanFragment(ctx *relstore.ExecContext, st *core.Store, f *translate.Fragment, est uint64) ([]relstore.Record, error) {
	fs, err := st.PrepareFragmentStream(ctx, f)
	if err != nil {
		return nil, err
	}
	bi, err := fs.Open(ctx, 0, 0)
	if err != nil {
		return nil, err
	}
	return relstore.CollectAdaptive(ctx, bi, est, st.FragmentFilter(f).Apply)
}

// Partition thresholds for the parallel merge join: below these input
// sizes the goroutine overhead dominates the merge work.
const (
	minParallelTuples = 64
	minParallelDescs  = 512
)

// structuralMergeJoin extends each tuple with the descendants of its
// ancCol binding. Both inputs are sorted by start, then merged with a
// stack of open ancestors: amortized linear plus output.
//
// With workers > 1 and large-enough inputs, the sorted ancestor tuples
// are split into contiguous chunks and merged concurrently. A descendant
// d joins tuple t iff t.start < d.start < t.end, and every tuple lives
// in exactly one chunk, so giving each chunk the descendant slice whose
// starts fall inside the chunk's interval span [first start, max end)
// reproduces the sequential pairing exactly, with no duplicates.
func structuralMergeJoin(tuples core.Tuples, ancCol int, descs []relstore.Record, j translate.Join, workers int) core.Tuples {
	tuples = tuples.SortedBy(ancCol)
	// Scans clustered by {plabel,start} are only start-sorted per plabel
	// run; order the descendants by start.
	descs = core.SortedByStart(descs)

	n := tuples.Len()
	if workers <= 1 || n < minParallelTuples || len(descs) < minParallelDescs {
		return mergeJoinChunk(tuples, 0, n, ancCol, descs, j)
	}

	chunks := workers
	if chunks > n/2 {
		chunks = n / 2
	}
	parts := make([]core.Tuples, chunks)
	var wg sync.WaitGroup
	for c := 0; c < chunks; c++ {
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			minStart := tuples.At(lo)[ancCol].Start
			maxEnd := uint32(0)
			for i := lo; i < hi; i++ {
				if end := tuples.At(i)[ancCol].End; end > maxEnd {
					maxEnd = end
				}
			}
			// Descendant candidates for this chunk: minStart < start < maxEnd.
			from := sort.Search(len(descs), func(i int) bool { return descs[i].Start > minStart })
			to := sort.Search(len(descs), func(i int) bool { return descs[i].Start >= maxEnd })
			parts[c] = mergeJoinChunk(tuples, lo, hi, ancCol, descs[from:to], j)
		}(c, c*n/chunks, (c+1)*n/chunks)
	}
	wg.Wait()

	out := parts[0]
	for _, p := range parts[1:] {
		out.AppendAll(p)
	}
	return out
}

// mergeJoinChunk runs the stack-based structural merge sweep over the
// start-sorted tuples [lo, hi) and start-sorted descendants.
func mergeJoinChunk(tuples core.Tuples, lo, hi, ancCol int, descs []relstore.Record, j translate.Join) core.Tuples {
	out := core.NewTuples(tuples.Stride + 1)
	var stack []int32 // open ancestor tuples (arena indexes), outermost first
	ti := lo
	for di := range descs {
		d := &descs[di]
		// Open all ancestor tuples that start before d.
		for ti < hi && tuples.At(ti)[ancCol].Start < d.Start {
			stack = append(stack, int32(ti))
			ti++
		}
		// Close those that ended before d.
		live := stack[:0]
		for _, t := range stack {
			if tuples.At(int(t))[ancCol].End > d.Start {
				live = append(live, t)
			}
		}
		stack = live
		// Every remaining open tuple's interval contains d (intervals of a
		// well-formed document nest, so start < d.start && end > d.start
		// implies end > d.end).
		for _, t := range stack {
			tup := tuples.At(int(t))
			a := &tup[ancCol]
			if a.End <= d.End {
				// Defensive: ill-nested inputs (possible only with a
				// corrupted store) must not produce false positives.
				continue
			}
			if j.LevelOK(a.Level, d.Level) {
				out.Append(tup, descs[di:di+1])
			}
		}
	}
	return out
}

// nestedLoopJoin is the quadratic D-join used by the ablation benchmark.
func nestedLoopJoin(tuples core.Tuples, ancCol int, descs []relstore.Record, j translate.Join) core.Tuples {
	out := core.NewTuples(tuples.Stride + 1)
	for i := 0; i < tuples.Len(); i++ {
		t := tuples.At(i)
		a := &t[ancCol]
		for di := range descs {
			d := &descs[di]
			if a.Start < d.Start && a.End > d.End && j.LevelOK(a.Level, d.Level) {
				out.Append(t, descs[di:di+1])
			}
		}
	}
	return out
}

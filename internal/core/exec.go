package core

import (
	"fmt"

	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/uint128"
)

// ExecConfig is ignored: a query runs on its calling goroutine on
// both engines. It exists only for benchmark/, which still passes
// Parallelism, and goes with ROADMAP item 1(d).
type ExecConfig struct {
	// Parallelism is ignored (ROADMAP item 1(d)).
	Parallelism int
}

// BatchController returns nil. It exists only for benchmark/ and goes
// with ROADMAP item 1 (the benchmark harness).
func (c ExecConfig) BatchController() *relstore.BatchController { return nil }

// Result holds a query's answer on either engine.
type Result struct {
	// Return is the answer: the return-node bindings, deduplicated, in
	// document order, in place in the engine's return arena.
	Return View
	// Records is Return copied out. Only the engines' Execute fills it,
	// for callers that read records rather than the view (the
	// benchmark's per-layer pipeline and tests); the library's
	// Store.Query finalizes from Return and never copies it.
	Records []relstore.Record
	// EarlyTerminated reports that an empty intermediate (a planner
	// proof, an empty fragment scan or stream, or an empty join result)
	// let the engine skip remaining scan, sweep or join work.
	EarlyTerminated bool
}

// Starts returns the start positions of the result bindings.
func (r *Result) Starts() []uint32 {
	out := make([]uint32, r.Return.Len())
	for i := range out {
		out[i] = r.Return.At(i).Start
	}
	return out
}

// FragmentStream prepares the document-order batched stream of one plan
// fragment's selection. Both engines read fragments through it: the
// relational engine drains each fragment with Collect, the twig engine's
// sweep reads each through Open.
//
// Every selection is a list of cluster runs: P-labels on SP for an
// equality, set or range selection, tag ids on SD for a tag selection or
// a wildcard (every element tag; attributes are never read).
// Preparation resolves the list before any record is read — for a range
// selection, by a skip scan over the cluster index — so Open descends
// the index once per run and merges the runs by start.
type FragmentStream struct {
	st      *Store
	plabels []uint128.Uint128 // SP runs
	tags    []uint32          // SD runs
	// Filter holds the fragment's local predicates, which Open does not
	// apply and Collect does.
	Filter RecFilter
}

// PrepareFragmentStream resolves fragment f's access path into its
// cluster runs. The skip scan for range selections is accounted to ctx
// (index pages only — no records are fetched).
func (s *Store) PrepareFragmentStream(ctx *relstore.ExecContext, f *translate.Fragment) (*FragmentStream, error) {
	fs := &FragmentStream{st: s, Filter: RecFilter{Value: f.Value, LevelEq: f.LevelEq}}
	switch f.Access.Kind {
	case translate.AccessPLabelEq:
		fs.plabels = []uint128.Uint128{f.Access.Range.Lo}
	case translate.AccessPLabelSet:
		fs.plabels = f.Access.Labels
	case translate.AccessPLabelRange:
		plabels, err := s.sp.DistinctPLabels(ctx, f.Access.Range.Lo, f.Access.Range.Hi)
		if err != nil {
			return nil, err
		}
		fs.plabels = plabels
	case translate.AccessTag:
		fs.tags = []uint32{f.Access.TagID}
	case translate.AccessAll:
		fs.tags = s.elemTags
	default:
		return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
	}
	return fs, nil
}

// KnownEmpty reports that the prepared stream has no runs, so it can
// produce no records: a range selection whose skip scan resolved zero
// P-labels. (A set with no labels never gets here: translation marks
// it an Empty fragment.) Engines use it to terminate early without
// opening (and sweeping) the plan's other streams.
func (fs *FragmentStream) KnownEmpty() bool {
	return len(fs.plabels)+len(fs.tags) == 0
}

// Open returns the fragment's records as a batched stream in document
// (start) order: one cluster scan per run, merged by start. Each run of
// a multi-run stream holds a pooled buffer until it is exhausted. The
// fragment-local predicates (fs.Filter) are NOT applied; the caller
// applies them to the decoded batches.
func (fs *FragmentStream) Open(ctx *relstore.ExecContext) (relstore.BatchIter, error) {
	runs := make([]relstore.BatchIter, 0, len(fs.plabels)+len(fs.tags))
	for _, p := range fs.plabels {
		runs = append(runs, fs.st.sp.ScanPLabelExactBatch(ctx, p))
	}
	for _, t := range fs.tags {
		runs = append(runs, fs.st.sd.ScanTagBatch(ctx, t))
	}
	return relstore.MergeBatchesByStart(runs)
}

// Collect drains the fragment's whole stream into a one-column binding
// arena, filtered by fs.Filter: the records of the return fragment
// (ret), the spans of any other. Every batch is read into batch, which
// the caller may reuse across streams; a heap-run batch is one page's
// share of the selection, which a BatchSize buffer always holds, so
// each page is requested once. The survivors of each batch are copied
// into the chunked arena, which is never regrown.
func (fs *FragmentStream) Collect(ctx *relstore.ExecContext, batch *relstore.Batch, ret bool) (Bindings, error) {
	b := NewBindings(ret)
	bi, err := fs.Open(ctx)
	if err != nil {
		return b, err
	}
	for {
		recs, err := batch.Next(bi)
		if err != nil || len(recs) == 0 {
			return b, err
		}
		b.Extend(fs.Filter.Apply(recs))
	}
}

// RecFilter applies a fragment's local predicates — value equality and
// exact level — to decoded record batches. Both engines filter through
// it so the predicate semantics cannot diverge.
type RecFilter struct {
	Value   *string
	LevelEq uint16
}

// Active reports whether the filter can drop any record.
func (f RecFilter) Active() bool {
	return f.Value != nil || f.LevelEq != 0
}

// Apply filters recs in place and returns the kept prefix.
func (f RecFilter) Apply(recs []relstore.Record) []relstore.Record {
	if !f.Active() {
		return recs
	}
	out := recs[:0]
	for _, rec := range recs {
		if f.Value != nil && rec.Data != *f.Value {
			continue
		}
		if f.LevelEq != 0 && rec.Level != f.LevelEq {
			continue
		}
		out = append(out, rec)
	}
	return out
}

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
// Preparation resolves the access path before any record is read — in
// particular the distinct P-label runs of a range selection (a skip
// scan over the cluster index) — so Open descends the index once per
// run.
type FragmentStream struct {
	st      *Store
	frag    *translate.Fragment
	plabels []uint128.Uint128 // resolved runs of a range selection
	// Filter holds the fragment's local predicates, which Open does not
	// apply and Collect does.
	Filter RecFilter
}

// PrepareFragmentStream resolves fragment f's access path against the
// store. The skip scan for range selections is accounted to ctx (index
// pages only — no records are fetched).
func (s *Store) PrepareFragmentStream(ctx *relstore.ExecContext, f *translate.Fragment) (*FragmentStream, error) {
	fs := &FragmentStream{st: s, frag: f, Filter: RecFilter{Value: f.Value, LevelEq: f.LevelEq, ExcludeTags: s.attrTagIDs(f)}}
	switch f.Access.Kind {
	case translate.AccessPLabelEq, translate.AccessPLabelSet, translate.AccessTag, translate.AccessAll:
		// No preparation needed.
	case translate.AccessPLabelRange:
		plabels, err := s.sp.DistinctPLabels(ctx, f.Access.Range.Lo, f.Access.Range.Hi)
		if err != nil {
			return nil, err
		}
		fs.plabels = plabels
	default:
		return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
	}
	return fs, nil
}

// KnownEmpty reports that the prepared stream can produce no records:
// a range selection whose skip scan resolved zero P-label runs. Engines
// use it to terminate early without opening (and sweeping) the plan's
// other streams.
func (fs *FragmentStream) KnownEmpty() bool {
	return fs.frag.Access.Kind == translate.AccessPLabelRange && len(fs.plabels) == 0
}

// Open returns the fragment's records as a batched stream in document
// (start) order. The fragment-local predicates (fs.Filter) are NOT
// applied; the caller applies them to the decoded batches.
func (fs *FragmentStream) Open(ctx *relstore.ExecContext) (relstore.BatchIter, error) {
	f := fs.frag
	switch f.Access.Kind {
	case translate.AccessPLabelEq:
		return fs.st.sp.ScanPLabelExactBatch(ctx, f.Access.Range.Lo), nil
	case translate.AccessPLabelRange:
		runs := make([]relstore.BatchIter, 0, len(fs.plabels))
		for _, p := range fs.plabels {
			runs = append(runs, fs.st.sp.ScanPLabelExactBatch(ctx, p))
		}
		if len(runs) == 0 {
			return emptyBatchIter{}, nil
		}
		return relstore.MergeBatchesByStart(runs)
	case translate.AccessPLabelSet:
		runs := make([]relstore.BatchIter, 0, len(f.Access.Labels))
		for _, l := range f.Access.Labels {
			runs = append(runs, fs.st.sp.ScanPLabelExactBatch(ctx, l))
		}
		if len(runs) == 0 {
			return emptyBatchIter{}, nil
		}
		return relstore.MergeBatchesByStart(runs)
	case translate.AccessTag:
		return fs.st.sd.ScanTagBatch(ctx, f.Access.TagID), nil
	case translate.AccessAll:
		return fs.st.sd.ScanStartOrderBatch(ctx), nil
	default:
		return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
	}
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

// emptyBatchIter is the stream of a selection with no runs.
type emptyBatchIter struct{}

func (emptyBatchIter) NextBatch([]relstore.Record) (int, error) { return 0, nil }

// RecFilter applies a fragment's local predicates — value equality,
// exact level, attribute-tag exclusion for wildcards — to decoded
// record batches. Both engines filter through it so the predicate
// semantics cannot diverge.
type RecFilter struct {
	Value       *string
	LevelEq     uint16
	ExcludeTags map[uint32]bool
}

// Active reports whether the filter can drop any record.
func (f RecFilter) Active() bool {
	return f.Value != nil || f.LevelEq != 0 || f.ExcludeTags != nil
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
		if f.ExcludeTags != nil && f.ExcludeTags[rec.TagID] {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// attrTagIDs returns the attribute tag ids a wildcard (AccessAll)
// fragment must exclude — XPath * matches elements only — or nil when
// the fragment needs no exclusion.
func (s *Store) attrTagIDs(f *translate.Fragment) map[uint32]bool {
	if f.Access.Kind != translate.AccessAll {
		return nil
	}
	m := map[uint32]bool{}
	for _, tag := range s.Scheme().Tags() {
		if len(tag) > 0 && tag[0] == '@' {
			if id, ok := s.TagID(tag); ok {
				m[id] = true
			}
		}
	}
	return m
}

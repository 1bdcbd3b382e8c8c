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
	// document order, in place in the engine's return arena. It is
	// valid until the query's Arena is released.
	Return View
	// Records is Return copied out. Only the engines' Execute fills it,
	// for callers that read records rather than the view (the
	// benchmark's per-layer pipeline and tests), and then empties
	// Return, whose arena it releases; the library's Store.Query
	// finalizes from Return and never copies it.
	Records []relstore.Record
	// EarlyTerminated reports that an empty intermediate (a planner
	// proof, an empty fragment scan or stream, or an empty join result)
	// let the engine skip remaining scan, sweep or join work.
	EarlyTerminated bool
}

// Starts returns the start positions of the result bindings, from
// Records when Execute filled it (and released the arena Return viewed).
func (r *Result) Starts() []uint32 {
	if r.Records != nil {
		out := make([]uint32, len(r.Records))
		for i := range r.Records {
			out[i] = r.Records[i].Start
		}
		return out
	}
	out := make([]uint32, r.Return.Len())
	for i := range out {
		out[i] = r.Return.At(i).Start
	}
	return out
}

// PrepareFragmentStream resolves fragment f's access path into the
// relstore.Cursor both engines read the fragment through: the relational
// engine drains each fragment's cursor into its bindings, the twig
// engine's sweep drives every fragment's cursor at once.
//
// Every selection is a list of cluster runs: P-labels on SP for an
// equality, set or range selection, tag ids on SD for a tag selection or
// a wildcard (every element tag; attributes are never read). The list
// is resolved here, before any record is read — for a range selection,
// by a skip scan over the cluster index, accounted to ctx (index pages
// only). The cursor applies the fragment's value and level predicates
// and reads nothing until its first Head. A range that resolves to no
// P-label makes a cursor that is KnownEmpty. (A set with no labels
// never gets here: translation marks it an Empty fragment.)
func (s *Store) PrepareFragmentStream(ctx *relstore.ExecContext, f *translate.Fragment) (*relstore.Cursor, error) {
	switch f.Access.Kind {
	case translate.AccessPLabelEq:
		return s.sp.ScanPLabels(ctx, []uint128.Uint128{f.Access.Range.Lo}, f.Value, f.LevelEq), nil
	case translate.AccessPLabelSet:
		return s.sp.ScanPLabels(ctx, f.Access.Labels, f.Value, f.LevelEq), nil
	case translate.AccessPLabelRange:
		plabels, err := s.sp.DistinctPLabels(ctx, f.Access.Range.Lo, f.Access.Range.Hi)
		if err != nil {
			return nil, err
		}
		return s.sp.ScanPLabels(ctx, plabels, f.Value, f.LevelEq), nil
	case translate.AccessTag:
		return s.sd.ScanTags(ctx, []uint32{f.Access.TagID}, f.Value, f.LevelEq), nil
	case translate.AccessAll:
		return s.sd.ScanTags(ctx, s.elemTags, f.Value, f.LevelEq), nil
	}
	return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
}

package core

import (
	"repro/internal/relstore"
	"repro/internal/translate"
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

// Select maps fragment f onto the relstore.Selection that is the only
// access path to its records: the planner estimates it, and both
// engines read the fragment through the cursor it opens. This is the
// one place that tells the access kinds apart: P-labels on SP for an
// equality, set or range selection, tag ids on SD for a tag selection
// or a wildcard (every element tag; attributes are never read). An
// Empty fragment, or an empty range, selects no run.
func (s *Store) Select(f *translate.Fragment) relstore.Selection {
	a := &f.Access
	if f.Empty || a.Kind == translate.AccessPLabelRange && a.Range.Empty {
		return s.sp.PLabels(nil)
	}
	var sel relstore.Selection
	switch a.Kind {
	case translate.AccessPLabelEq:
		sel = s.sp.PLabel(a.Range.Lo)
	case translate.AccessPLabelRange:
		sel = s.sp.PLabelRange(a.Range.Lo, a.Range.Hi)
	case translate.AccessPLabelSet:
		sel = s.sp.PLabels(a.Labels)
	case translate.AccessTag:
		sel = s.sd.Tag(a.TagID)
	case translate.AccessAll:
		sel = s.sd.Tags(s.elemTags)
	default:
		panic("core: unknown access kind " + a.Kind.String())
	}
	return sel.Where(f.Value, f.LevelEq, s.sp)
}

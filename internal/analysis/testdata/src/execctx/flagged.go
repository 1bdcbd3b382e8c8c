// Package relstore (fixture) holds the positive fixtures for the
// execctx analyzer: measured entry points that drop the per-query
// context, and package-level counter state.
package relstore

import "sync/atomic"

type Relation struct{}

type Selection struct{}

type ExecContext struct{}

type Locator struct{}

type Counters struct{ Pages uint64 }

var pagesRead atomic.Uint64 // want "package-level atomic.Uint64 is shared counter state"

var totals Counters // want "package-level Counters is shared counter state"

var globalCtx = &ExecContext{} // want "package-level ExecContext is shared counter state"

// ScanTag is a measured entry point but drops the context: its page
// and record counters have nowhere per-query to go.
func (r *Relation) ScanTag(tagID uint32) error { // want "ScanTag must take"
	return nil
}

// Open records counters but takes no context at all.
func (s Selection) Open() error { // want "records execution counters but takes no"
	return nil
}

// Estimate takes the context, but not first.
func (s Selection) Estimate(n int, ctx *ExecContext) uint64 { // want "Estimate must take"
	return 0
}

// Estimate on a pointer receiver, keeping the run positions its probe
// read in place, is the same entry point, and drops the context.
func (s *Selection) Estimate() (uint64, error) { // want "records execution counters but takes no"
	return 0, nil
}

// Estimate returning the positioned selection takes the context, but
// not first.
func (s Selection) Estimate(n int, ctx *ExecContext) (Selection, uint64, bool, error) { // want "Estimate must take"
	return s, 0, true, nil
}

// Get takes the context, but not first.
func (r *Relation) Get(loc Locator, ctx *ExecContext) error { // want "Get must take"
	return nil
}

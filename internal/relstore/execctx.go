package relstore

import (
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/pager"
)

// ExecContext accumulates the execution statistics of one query: the
// visited-elements counter (the paper's "elements read" metric) and the
// buffer-pool traffic of every page the query touches (the paper's "disk
// accesses"). One context is created per query execution and threaded
// through every scan iterator, so concurrent queries against one store
// never observe each other's counters — this replaces the former
// store-global ResetCounters/Snapshot protocol, which raced when two
// queries were in flight.
//
// All methods are safe for concurrent use, so scans on several
// goroutines may accumulate into one context. A nil *ExecContext is
// valid everywhere one is accepted and simply discards the counts.
type ExecContext struct {
	visited atomic.Uint64
	pages   pager.Counters
	trace   *obs.Trace
}

// NewExecContext returns a fresh context with all counters at zero.
func NewExecContext() *ExecContext { return &ExecContext{} }

// SetTrace attaches a phase trace to the context. Both engines and the
// fragment cursors report spans into it via Trace(); with no trace attached
// (the default) span recording is a nil check and nothing more. SetTrace
// must be called before the context is shared with other goroutines.
func (c *ExecContext) SetTrace(t *obs.Trace) {
	if c != nil {
		c.trace = t
	}
}

// Trace returns the context's phase trace, nil-safely: a nil context or
// an untraced query yields a nil *obs.Trace, on which every recording
// method is a no-op.
func (c *ExecContext) Trace() *obs.Trace {
	if c == nil {
		return nil
	}
	return c.trace
}

// BatchController is an empty placeholder. It exists only for
// benchmark/ and goes with ROADMAP item 1 (the benchmark harness).
type BatchController struct{}

// SetBatchControl does nothing. It exists only for benchmark/ and goes
// with ROADMAP item 1 (the benchmark harness).
func (c *ExecContext) SetBatchControl(*BatchController) {}

// Visited returns the number of records decoded by scans under this
// context.
func (c *ExecContext) Visited() uint64 {
	if c == nil {
		return 0
	}
	return c.visited.Load()
}

// PageReads returns the number of buffer-pool requests issued under this
// context (heap fetches plus index traversal).
func (c *ExecContext) PageReads() uint64 {
	if c == nil {
		return 0
	}
	return c.pages.Reads.Load()
}

// PageMisses returns the number of pool requests that went to the
// backing file — the paper's disk-access metric.
func (c *ExecContext) PageMisses() uint64 {
	if c == nil {
		return 0
	}
	return c.pages.Misses.Load()
}

// addVisitedN records n decoded records, nil-safely.
func (c *ExecContext) addVisitedN(n uint64) {
	if c != nil {
		c.visited.Add(n)
	}
}

// pageCounters returns the context's page-counter sink for the pager
// layer (nil when the context itself is nil).
func (c *ExecContext) pageCounters() *pager.Counters {
	if c == nil {
		return nil
	}
	return &c.pages
}

// Package obs is the observability layer of the BLAS system: per-query
// phase tracing (Trace) and store-wide metrics (Registry, Histogram).
//
// The package sits below every other layer — it imports only the
// standard library — so the storage engine, both query engines and the
// public API can all report into it without import cycles.
//
// # Tracing cost model
//
// Tracing is opt-in per query. Everything on the hot path is written
// against a possibly-nil *Trace: every method is nil-safe, and the
// Begin/End span protocol reads the clock only when a trace is actually
// attached, so the tracing-off path costs one nil check and zero
// allocations (TestTraceOffZeroAlloc and BenchmarkTraceOff guard this).
package obs

import (
	"sync/atomic"
	"time"
)

// Phase identifies one segment of a query's execution. Parse, Translate
// and the engine phases are recorded as non-overlapping wall-time spans
// on the coordinating goroutine, so their durations tile the query's
// total latency. PhaseDecode is different: it overlaps the scan and
// sweep spans, so it is reported alongside the breakdown but excluded
// from the sum-to-total invariant.
type Phase uint8

// Phases of a query execution.
const (
	// PhaseParse is XPath parsing.
	PhaseParse Phase = iota
	// PhaseTranslate is plan translation (Split/Push-up/Unfold/D-label).
	PhaseTranslate
	// PhaseOrder is physical planning: the planner's selectivity probes
	// (O(log n) run-length estimates against the B+-trees) and the greedy
	// ordering of fragment scans and structural joins.
	PhaseOrder
	// PhaseScan covers fragment selections: the relational engine's
	// fragment scans, and the twig engine's stream preparation (P-label
	// run resolution via index skip scans).
	PhaseScan
	// PhaseJoin covers result combination: the relational engine's
	// structural D-joins, and the twig engine's shared-prefix merge of
	// path solutions.
	PhaseJoin
	// PhaseSweep is the twig engine's holistic stack sweep (zero on the
	// relational engine).
	PhaseSweep
	// PhaseFinalize is record-to-match conversion in the public API.
	PhaseFinalize
	// PhaseDecode is the cumulative time spent decoding heap-page records
	// in the batch layer (the column-group decodes of columnar heap
	// pages). It overlaps the scan/sweep spans, so it is reported
	// alongside the breakdown but excluded from the sum-to-total
	// invariant.
	PhaseDecode
	// NumPhases is the number of phases (array sizing).
	NumPhases
)

var phaseNames = [NumPhases]string{
	"parse", "translate", "order", "scan", "join", "sweep", "finalize", "decode",
}

// String returns the phase's snake_case name (used as JSON keys).
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Trace accumulates one query's phase breakdown. A nil *Trace is valid
// everywhere one is accepted and records nothing; all methods are safe
// for concurrent use.
type Trace struct {
	phases  [NumPhases]atomic.Int64 // cumulative nanoseconds
	decoded atomic.Uint64           // heap records decoded in the batch layer
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Begin starts a span: it returns the current time when tracing is
// active and the zero time on a nil trace, without reading the clock.
//
//blas:hotpath
func (t *Trace) Begin() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

// End closes a span opened by Begin, attributing the elapsed time to
// phase p. A zero begin time (from a nil trace's Begin) is ignored, so
// Begin/End pairs need no tracing-enabled branch at the call site.
//
//blas:hotpath
func (t *Trace) End(p Phase, begin time.Time) {
	if t == nil || begin.IsZero() {
		return
	}
	t.phases[p].Add(int64(time.Since(begin)))
}

// Add attributes d to phase p directly (for durations measured by the
// caller).
//
//blas:hotpath
func (t *Trace) Add(p Phase, d time.Duration) {
	if t == nil {
		return
	}
	t.phases[p].Add(int64(d))
}

// AddDecoded counts n heap records decoded in the batch layer (the
// record count behind the PhaseDecode span).
//
//blas:hotpath
func (t *Trace) AddDecoded(n int) {
	if t == nil || n <= 0 {
		return
	}
	t.decoded.Add(uint64(n))
}

// TraceSnapshot is an immutable copy of a trace's accumulated phases.
type TraceSnapshot struct {
	Phases         [NumPhases]time.Duration
	DecodedRecords uint64 // heap records decoded in the batch layer
}

// Span returns the duration attributed to phase p.
func (s TraceSnapshot) Span(p Phase) time.Duration { return s.Phases[p] }

// Snapshot copies the trace's current state. Snapshotting a nil trace
// yields the zero snapshot.
func (t *Trace) Snapshot() TraceSnapshot {
	var s TraceSnapshot
	if t == nil {
		return s
	}
	for p := Phase(0); p < NumPhases; p++ {
		s.Phases[p] = time.Duration(t.phases[p].Load())
	}
	s.DecodedRecords = t.decoded.Load()
	return s
}

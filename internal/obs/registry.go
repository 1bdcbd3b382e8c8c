package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry aggregates query metrics for one store over its lifetime:
// in-flight and completed query counts, per-engine latency histograms,
// per-translator counts, and the cumulative execution statistics
// (visited elements, page reads/misses) of every completed query.
//
// All update methods are safe for concurrent use and lock-free on the
// hot path except for the first query of a new engine/translator label,
// which takes a mutex once to install the counter. Snapshot may race
// with updates; its derived totals stay internally consistent (see
// RegistrySnapshot).
type Registry struct {
	inFlight   atomic.Int64
	errors     atomic.Uint64
	visited    atomic.Uint64
	pageReads  atomic.Uint64
	pageMisses atomic.Uint64
	earlyTerms atomic.Uint64
	latency    Histogram

	mu           sync.RWMutex
	byEngine     map[string]*Histogram
	byTranslator map[string]*atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		byEngine:     map[string]*Histogram{},
		byTranslator: map[string]*atomic.Uint64{},
	}
}

// QueryBegin records a query entering execution. Every QueryBegin must
// be balanced by exactly one QueryDone or QueryFailed.
func (r *Registry) QueryBegin() { r.inFlight.Add(1) }

// QueryFailed retires an in-flight query that returned an error.
func (r *Registry) QueryFailed() {
	r.errors.Add(1)
	r.inFlight.Add(-1)
}

// QueryDone retires a successfully completed query, recording its
// latency under the engine's histogram and accumulating its execution
// statistics.
func (r *Registry) QueryDone(engine, translator string, d time.Duration, visited, pageReads, pageMisses uint64) {
	r.latency.Observe(d)
	r.engineHist(engine).Observe(d)
	r.translatorCount(translator).Add(1)
	r.visited.Add(visited)
	r.pageReads.Add(pageReads)
	r.pageMisses.Add(pageMisses)
	r.inFlight.Add(-1)
}

// EarlyTermination records a query whose execution was cut short by the
// physical planner or an engine: a provably- or actually-empty
// intermediate let remaining scans and joins be skipped.
func (r *Registry) EarlyTermination() { r.earlyTerms.Add(1) }

func (r *Registry) engineHist(engine string) *Histogram {
	r.mu.RLock()
	h := r.byEngine[engine]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.byEngine[engine]; h == nil {
		h = &Histogram{}
		r.byEngine[engine] = h
	}
	return h
}

func (r *Registry) translatorCount(translator string) *atomic.Uint64 {
	r.mu.RLock()
	c := r.byTranslator[translator]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.byTranslator[translator]; c == nil {
		c = &atomic.Uint64{}
		r.byTranslator[translator] = c
	}
	return c
}

// RegistrySnapshot is a point-in-time copy of a registry. Queries is
// derived from the latency histogram's bucket loads, so Queries always
// equals Latency.Count — and once the store is quiescent, equals the
// number of successful Query calls exactly.
type RegistrySnapshot struct {
	InFlight     int64                        `json:"in_flight"`
	Queries      uint64                       `json:"queries"`
	Errors       uint64                       `json:"query_errors"`
	Visited      uint64                       `json:"visited_elements"`
	PageReads    uint64                       `json:"page_reads"`
	PageMisses   uint64                       `json:"page_misses"`
	EarlyTerms   uint64                       `json:"early_terminations"`
	Latency      HistogramSnapshot            `json:"latency"`
	ByEngine     map[string]HistogramSnapshot `json:"queries_by_engine"`
	ByTranslator map[string]uint64            `json:"queries_by_translator"`
}

// Snapshot copies the registry's current state.
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		InFlight:     r.inFlight.Load(),
		Errors:       r.errors.Load(),
		Visited:      r.visited.Load(),
		PageReads:    r.pageReads.Load(),
		PageMisses:   r.pageMisses.Load(),
		EarlyTerms:   r.earlyTerms.Load(),
		Latency:      r.latency.Snapshot(),
		ByEngine:     map[string]HistogramSnapshot{},
		ByTranslator: map[string]uint64{},
	}
	s.Queries = s.Latency.Count
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, h := range r.byEngine {
		s.ByEngine[name] = h.Snapshot()
	}
	for name, c := range r.byTranslator {
		s.ByTranslator[name] = c.Load()
	}
	return s
}

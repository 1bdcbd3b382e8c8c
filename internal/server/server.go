// Package server implements blasd's serving tier: a resident HTTP front
// end over a blas.Store. It is the piece that turns the one-shot query
// library into a daemon fit for sustained traffic:
//
//   - POST /query executes an XPath expression with per-request engine,
//     translator and trace options;
//   - a prepared-plan cache (LRU, keyed by store generation + effective
//     translator + normalized query) caches exactly what
//     ExecStats.PlanElapsed measures, so a warm query pays no parse or
//     translate cost;
//   - a bounded result cache (LRU, entry- and byte-limited) serves
//     repeated identical queries without touching the store, with
//     explicit invalidation via DELETE /cache;
//   - admission control bounds concurrently executing queries (429 +
//     Retry-After past the limit); each query runs on one goroutine, so
//     concurrency is across queries only;
//   - per-request timeouts abandon slow responses without leaking their
//     admission slots, and graceful drain (BeginDrain/Drain) lets
//     in-flight queries finish while new ones are rejected;
//   - GET /metrics and GET /debug/vars serve expvar-compatible JSON
//     ({"blas": StoreMetrics, "blasd": server Metrics}), GET /healthz
//     reports liveness and drain state.
//
// The served store can be hot-swapped (SwapStore) — generation-keyed
// caches guarantee a swapped-in store never sees a stale plan.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	blas "repro"
)

const (
	// maxBodyBytes bounds a POST /query body; beyond it the request is
	// rejected with 413 before any parsing happens.
	maxBodyBytes = 1 << 20
	// maxQueryBytes bounds the XPath expression itself.
	maxQueryBytes = 64 << 10
)

// Config tunes a Server. The zero value serves with sensible defaults;
// a negative cache size disables that cache.
type Config struct {
	// MaxInFlight bounds concurrently executing queries; requests beyond
	// it get 429 + Retry-After. 0 selects 4*GOMAXPROCS.
	MaxInFlight int
	// QueryTimeout abandons a request whose execution exceeds it (504).
	// The execution itself runs to completion server-side and holds its
	// admission slot until done. 0 disables the timeout.
	QueryTimeout time.Duration
	// RetryAfter is the hint sent with 429 responses. 0 selects 1s.
	RetryAfter time.Duration
	// PlanCacheEntries bounds the prepared-plan LRU. 0 selects 256;
	// negative disables plan caching.
	PlanCacheEntries int
	// ResultCacheEntries bounds the result LRU. 0 selects 256; negative
	// disables result caching.
	ResultCacheEntries int
	// ResultCacheBytes bounds the encoded result bytes the result LRU
	// holds. 0 selects 64 MiB.
	ResultCacheBytes int64
	// DefaultEngine is used when a request names none ("" = relational).
	DefaultEngine blas.Engine
	// DefaultTranslator is used when a request names none ("" = auto).
	DefaultTranslator blas.Translator
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if c.RetryAfter == 0 {
		c.RetryAfter = time.Second
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 256
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = blas.EngineRelational
	}
	return c
}

// Server is the HTTP serving tier over one blas.Store. Create with New,
// mount via Handler (or use it as an http.Handler directly), stop with
// Drain. All methods are safe for concurrent use.
type Server struct {
	cfg Config
	mux *http.ServeMux

	storeMu sync.RWMutex
	store   *blas.Store

	plans   *planCache   // nil when disabled
	results *resultCache // nil when disabled

	slots chan struct{} // admission semaphore, capacity MaxInFlight

	draining atomic.Bool
	wg       sync.WaitGroup // in-flight query executions, for Drain

	admitted, rejected429, rejectedDraining atomic.Uint64
	timeouts, queryErrors                   atomic.Uint64
	planNs                                  atomic.Int64 // cumulative planning ns paid by requests (plan-cache misses)

	// execGate, when non-nil, runs inside the execution goroutine after
	// admission and before the query executes — a test seam to hold
	// queries in flight deterministically. Set it before serving.
	execGate func()
}

// New returns a server over store with the given configuration.
func New(store *blas.Store, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		store: store,
		slots: make(chan struct{}, cfg.MaxInFlight),
	}
	if cfg.PlanCacheEntries > 0 {
		s.plans = newPlanCache(cfg.PlanCacheEntries)
	}
	if cfg.ResultCacheEntries > 0 {
		s.results = newResultCache(cfg.ResultCacheEntries, cfg.ResultCacheBytes)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleVars)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("DELETE /cache", s.handleCacheDelete)
	s.mux = mux
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store returns the store currently being served.
func (s *Server) Store() *blas.Store {
	s.storeMu.RLock()
	defer s.storeMu.RUnlock()
	return s.store
}

// SwapStore atomically replaces the served store and returns the
// previous one. The caller owns the old store and may Close it
// immediately — Close waits for that store's in-flight queries, and
// requests racing the swap that still hold the old store fail with 503
// rather than seeing torn state. Both caches are purged: generation
// keying already makes old entries unreachable, the purge just frees
// their memory promptly.
func (s *Server) SwapStore(next *blas.Store) *blas.Store {
	s.storeMu.Lock()
	old := s.store
	s.store = next
	s.storeMu.Unlock()
	if s.plans != nil {
		s.plans.purge()
	}
	if s.results != nil {
		s.results.purge()
	}
	return old
}

// BeginDrain puts the server into draining mode: new queries are
// rejected with 503 while in-flight executions run to completion.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain begins draining and blocks until every in-flight query
// execution has finished, or ctx expires.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// QueryRequest is the POST /query body.
type QueryRequest struct {
	// Query is the XPath expression (required).
	Query string `json:"query"`
	// Engine is "relational" or "twig" ("" = server default).
	Engine string `json:"engine,omitempty"`
	// Translator is auto, dlabel, split, pushup or unfold ("" = server
	// default).
	Translator string `json:"translator,omitempty"`
	// Trace returns a per-phase breakdown in stats.phases. Traced
	// requests bypass the result cache.
	Trace bool `json:"trace,omitempty"`
	// NoResultCache forces execution even when a cached result exists,
	// and keeps the result out of the cache.
	NoResultCache bool `json:"no_result_cache,omitempty"`
}

// QueryResponse is the POST /query success body.
type QueryResponse struct {
	// Query is the normalized form of the request's expression — the
	// cache key identity.
	Query   string         `json:"query"`
	Count   int            `json:"count"`
	Matches []blas.Match   `json:"matches"`
	Stats   blas.ExecStats `json:"stats"`
	// Cached reports a result-cache hit; Stats then describes the
	// execution that originally produced the matches.
	Cached bool `json:"cached"`
	// PlanCached reports that no planning work was done for this request.
	PlanCached bool `json:"plan_cached"`
	// PlanNs is the planning time this request paid: zero on a plan- or
	// result-cache hit, the parse+translate cost on a cold plan.
	PlanNs int64 `json:"plan_ns"`
}

// A success body is QueryResponse's JSON, byte for byte, but it is never
// produced by marshalling a QueryResponse: the matches array arrives
// already encoded (encodedResult) and is written to the socket verbatim
// between the two halves of the envelope, wireHead and wireTail, which
// carry QueryResponse's remaining fields in its order and under its
// tags. Splicing raw bytes rather than embedding a json.RawMessage
// matters: encoding/json re-validates and compacts a RawMessage byte by
// byte, which costs as much as encoding the matches did.
// TestQueryWireMatchesQueryResponse pins the shapes together.
type wireHead struct {
	Query string `json:"query"`
	Count int    `json:"count"`
}

type wireTail struct {
	Stats      blas.ExecStats `json:"stats"`
	Cached     bool           `json:"cached"`
	PlanCached bool           `json:"plan_cached"`
	PlanNs     int64          `json:"plan_ns"`
}

// queryBody returns the response body in three parts to be written in
// order; the middle one is res.matches itself, not a copy.
func queryBody(query string, res *encodedResult, tail wireTail) (prefix, matches, suffix []byte, err error) {
	head, err := json.Marshal(wireHead{Query: query, Count: res.count})
	if err != nil {
		return nil, nil, nil, err
	}
	tail.Stats = res.stats
	rest, err := json.Marshal(tail)
	if err != nil {
		return nil, nil, nil, err
	}
	// {"query":..,"count":N} + {"stats":..} -> {..,"count":N,"matches":[..],"stats":..}\n
	prefix = append(head[:len(head)-1], `,"matches":`...)
	rest[0] = ','
	return prefix, res.matches, append(rest, '\n'), nil
}

func writeQueryResponse(w http.ResponseWriter, query string, res *encodedResult, tail wireTail) {
	prefix, matches, suffix, err := queryBody(query, res, tail)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	for _, part := range [][]byte{prefix, matches, suffix} {
		if _, err := w.Write(part); err != nil {
			return // client went away; nothing to do
		}
	}
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v) //nolint:errcheck // client went away; nothing to do
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.rejectedDraining.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req QueryRequest
	if err := dec.Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxBodyBytes))
			return
		}
		writeError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	switch {
	case req.Query == "":
		writeError(w, http.StatusBadRequest, "missing query")
		return
	case len(req.Query) > maxQueryBytes:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("query exceeds %d bytes", maxQueryBytes))
		return
	}
	engine := blas.Engine(req.Engine)
	if engine == "" {
		engine = s.cfg.DefaultEngine
	}
	if engine != blas.EngineRelational && engine != blas.EngineTwig {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("unknown engine %q", req.Engine))
		return
	}

	st := s.Store()
	reqTr := blas.Translator(req.Translator)
	if reqTr == "" {
		reqTr = s.cfg.DefaultTranslator
	}
	eff := st.EffectiveTranslator(reqTr)
	norm, err := blas.NormalizeQuery(req.Query)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	gen := st.Generation()

	cacheable := s.results != nil && !req.Trace && !req.NoResultCache
	rk := resultKey{gen: gen, engine: engine, translator: eff, query: norm}
	if cacheable {
		if res, ok := s.results.get(rk); ok {
			writeQueryResponse(w, norm, res, wireTail{Cached: true, PlanCached: true})
			return
		}
	}

	// Plan: cache hit, or prepare and install. The planning cost paid
	// here is exactly what ExecStats.PlanElapsed measures in the
	// uncached path; the plan cache exists to make it zero.
	var pq *blas.PreparedQuery
	planHit := false
	var planNs int64
	pk := planKey{gen: gen, translator: eff, query: norm}
	if s.plans != nil {
		pq, planHit = s.plans.get(pk)
	}
	if pq == nil {
		prepBegin := time.Now()
		pq, err = st.Prepare(norm, blas.QueryOptions{Translator: eff})
		if err != nil {
			status := http.StatusBadRequest
			if errors.Is(err, blas.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, err.Error())
			return
		}
		planNs = time.Since(prepBegin).Nanoseconds()
		s.planNs.Add(planNs)
		if s.plans != nil {
			s.plans.put(pk, pq)
		}
	}

	// Admission: a free execution slot or an immediate 429 — requests
	// never queue inside the server, so saturation degrades to fast,
	// honest rejections instead of collapse.
	select {
	case s.slots <- struct{}{}:
	default:
		s.rejected429.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("server saturated (%d queries in flight)", s.cfg.MaxInFlight))
		return
	}
	s.admitted.Add(1)

	opts := blas.QueryOptions{Engine: engine, Trace: req.Trace}

	ctx := r.Context()
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}

	type outcome struct {
		res *encodedResult
		err error
	}
	done := make(chan outcome, 1)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if gate := s.execGate; gate != nil {
			gate()
		}
		var enc *encodedResult
		res, err := pq.Query(opts)
		if err == nil {
			enc, err = encodeResult(res)
		}
		if err != nil {
			s.queryErrors.Add(1)
		} else if cacheable {
			s.results.put(rk, enc)
		}
		// Free the slot before handing over the outcome: a client that
		// has its response must not still see the query in flight.
		<-s.slots
		done <- outcome{enc, err}
	}()

	select {
	case o := <-done:
		if o.err != nil {
			status := http.StatusInternalServerError
			if errors.Is(o.err, blas.ErrClosed) {
				status = http.StatusServiceUnavailable
			}
			writeError(w, status, o.err.Error())
			return
		}
		writeQueryResponse(w, norm, o.res, wireTail{PlanCached: planHit, PlanNs: planNs})
	case <-ctx.Done():
		s.timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout,
			"query abandoned (it runs to completion server-side and holds its admission slot until done)")
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"generation": s.Store().Generation(),
	})
}

func (s *Server) handleCacheDelete(w http.ResponseWriter, r *http.Request) {
	scope := r.URL.Query().Get("scope")
	var results, plans int
	switch scope {
	case "", "results":
		if s.results != nil {
			results = s.results.purge()
		}
	case "plans":
		if s.plans != nil {
			plans = s.plans.purge()
		}
	case "all":
		if s.results != nil {
			results = s.results.purge()
		}
		if s.plans != nil {
			plans = s.plans.purge()
		}
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("unknown scope %q (want results, plans or all)", scope))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{
		"invalidated_results": results,
		"invalidated_plans":   plans,
	})
}

// Metrics is a snapshot of the server's own counters — the serving-tier
// half of GET /metrics, alongside the store's StoreMetrics. It marshals
// to JSON and implements expvar.Var.
type Metrics struct {
	StoreGeneration  uint64       `json:"store_generation"`
	Draining         bool         `json:"draining"`
	InFlight         int          `json:"in_flight"`
	MaxInFlight      int          `json:"max_in_flight"`
	Admitted         uint64       `json:"admitted"`
	Rejected429      uint64       `json:"rejected_429"`
	RejectedDraining uint64       `json:"rejected_draining"`
	Timeouts         uint64       `json:"timeouts"`
	QueryErrors      uint64       `json:"query_errors"`
	PlanNsTotal      int64        `json:"plan_ns_total"` // cumulative planning time paid; flat while the plan cache is warm
	PlanCache        CacheMetrics `json:"plan_cache"`
	ResultCache      CacheMetrics `json:"result_cache"`
	// Clamped is always zero: no query is granted workers. It exists
	// only for benchmark/ and goes with ROADMAP item 1(d).
	Clamped uint64 `json:"-"`
}

// String renders the snapshot as JSON (the expvar.Var contract).
func (m Metrics) String() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Metrics snapshots the server's counters.
func (s *Server) Metrics() Metrics {
	m := Metrics{
		StoreGeneration:  s.Store().Generation(),
		Draining:         s.draining.Load(),
		InFlight:         len(s.slots),
		MaxInFlight:      s.cfg.MaxInFlight,
		Admitted:         s.admitted.Load(),
		Rejected429:      s.rejected429.Load(),
		RejectedDraining: s.rejectedDraining.Load(),
		Timeouts:         s.timeouts.Load(),
		QueryErrors:      s.queryErrors.Load(),
		PlanNsTotal:      s.planNs.Load(),
	}
	if s.plans != nil {
		m.PlanCache = s.plans.metrics()
	}
	if s.results != nil {
		m.ResultCache = s.results.metrics()
	}
	return m
}

// Vars is the GET /metrics and GET /debug/vars payload: expvar-style
// JSON with one top-level key per subsystem.
type Vars struct {
	Blas  blas.StoreMetrics `json:"blas"`
	Blasd Metrics           `json:"blasd"`
}

func (s *Server) handleVars(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, Vars{Blas: s.Store().Metrics(), Blasd: s.Metrics()})
}

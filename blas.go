// Package blas is a bi-labeling based XPath processing system, a faithful
// reimplementation of Chen, Davidson & Zheng, "BLAS: An Efficient XPath
// Processing System" (SIGMOD 2004).
//
// BLAS shreds an XML document into relations in which every element and
// attribute node carries two labels:
//
//   - a D-label <start, end, level> — interval containment decides
//     ancestor/descendant relationships, level differences decide
//     parent/child (§3.1);
//   - a P-label — an integer encoding of the node's root-to-node path,
//     chosen so that an entire chain of child steps (a suffix path query)
//     evaluates as a single B+-tree range or equality selection (§3.2).
//
// Complex queries are decomposed into suffix path pieces by one of three
// translators (Split, Push-up, Unfold), evaluated as indexed selections,
// and recombined with structural D-joins — either on the built-in
// relational engine or on a holistic twig join engine (§4, §5).
//
// Between translation and execution sits a statistics-free physical
// planner (internal/planner): it probes the B+-tree indexes for
// per-fragment run-length estimates in O(log n), orders fragment scans
// and structural joins most-selective-first, and proves plans empty
// before any record is fetched (a zero estimate is definitive). Both
// engines execute the resulting ordered physical plan and terminate
// early on empty intermediates. QueryOptions.NoReorder restores the
// translator's fixed order for A/B comparison.
//
// # Concurrency
//
// A *Store is safe for concurrent use once built or opened: any number
// of goroutines may call Query, Explain, Stats and the other read
// methods simultaneously. Each Query gets its own execution context, so
// the ExecStats in one result never include another query's work.
//
// A single query runs on the goroutine that calls Query and starts no
// other, on both engines: the relational engine issues its fragment
// selections one at a time in plan order — the order is what lets an
// empty selective scan skip the expensive ones — and runs each D-join
// as one sequential stack merge, as the paper does (§5.2); the twig
// engine runs one holistic sweep. Concurrency exists only across
// queries, so ExecStats.VisitedElements and PageReads depend only on
// the plan and the data.
//
// The storage layer scales with concurrent queries: each relation
// file's buffer pool is sharded (one lock-striped shard per CPU,
// rounded up to a power of two) and page views pin frames instead of
// holding a pool-wide lock, so concurrent scans overlap their page
// decoding and backing-store misses.
//
// Close tracks in-flight queries with a refcount: it blocks until every
// active Query has returned, and any Query or DropCaches call issued
// after Close has begun fails with ErrClosed. DropCaches may run
// concurrently with queries — it is memory-safe, though it inflates the
// miss counts those queries observe.
//
// # Results
//
// A Result's Matches are rendered once: each record's tag and source
// path come from a per-store intern table keyed by P-label, filled
// lazily the first time a label appears in any result and shared by all
// concurrent queries. Every match of one label — within a result and
// across results — therefore carries the same Tag and Path strings, and
// finalizing a result costs one []Match allocation plus one decode per
// label not seen before. Go strings are immutable, so sharing is
// invisible to callers; the only thing to know is that holding one Match
// keeps its path string alive, not the result it came from. The table
// never evicts and cannot outgrow the store's distinct P-labels (one per
// distinct root-to-node path of the document: a few hundred for the
// paper's data sets), and nothing is built at Open.
//
// Everything else a query builds on the way — scan bindings, twig path
// solutions, join rows — lives in chunks of one per-query arena, which
// the query hands back to process-wide free lists once its matches are
// copied out. A warm query therefore allocates its answer (and the
// value strings its scans decode) but no intermediate result; the free
// lists keep at most a few MiB idle, so one huge query does not pin
// its memory.
//
// # Storage
//
// The two relations live in paged heap files (internal/relstore), each
// read only through its bulk-loaded clustered B+-tree index; SP also
// keeps a data index for the planner's value-predicate estimate. Every
// selection is one cluster run or a start-ordered merge of several — a
// wildcard merges SD's element-tag runs. Heap pages (format BLASREL3)
// are columnar and delta-compressed: a page's cluster-key-ordered
// records are cut into runs sharing the cluster prefix, and each run
// stores its starts as ascending delta-varints, its
// ends/levels/value-lengths as packed varint columns, and its values
// out-of-line — so a batched scan decodes a whole run with one
// branch-light loop per column. An SD run stores its distinct P-labels
// once and a small index per record. Build writes this format and Open
// reads only it: a store in any other format (an older BLASREL1 or
// BLASREL2 store included) is rejected with an error naming the fix,
// rebuild with blasload. A stream reads one heap page's share of its selection per
// batch, so a query's PageReads depend on its plan and the data, never
// on what the buffer pool happens to hold; per-query decode work
// surfaces in ExecStats.Phases.
//
// # Observability
//
// The system reports its behaviour at three granularities:
//
//   - Per query: every Result carries ExecStats — latency split into
//     planning and execution (Elapsed = PlanElapsed + ExecElapsed), the
//     paper's visited-elements and disk-access counters, and, when
//     QueryOptions.Trace is set, a PhaseBreakdown of wall time across
//     the pipeline phases (parse, translate, order, scan, join/sweep,
//     finalize) plus the batch layer's cumulative decode time. Tracing
//     is off by default
//     and the off path costs nothing: no allocations, no clock reads.
//   - Per store: Store.Metrics returns a StoreMetrics snapshot of
//     lifetime counters — in-flight and completed queries, error count,
//     bounded latency histograms overall and per engine, per-translator
//     counts, cumulative execution statistics, and per-shard buffer
//     pool traffic for both relation files. StoreMetrics marshals to
//     JSON and implements expvar.Var, so a store can be published with
//     expvar.Publish("blas", expvar.Func(func() any { return st.Metrics() })).
//   - Document shape: Store.Stats describes the shredded document and
//     snapshots each relation file's buffer pool (PoolStats).
//
// # Serving
//
// For sustained traffic the library supports a resident serving tier.
// Store.Prepare parses, translates and physically plans a query once,
// returning a PreparedQuery (holding the ordered physical plan) that may
// be executed any number of times, concurrently, on either engine, with
// ExecStats.PlanElapsed = 0 — the plan-once, execute-many path.
// NormalizeQuery maps every spelling of an XPath expression onto one
// canonical form (the natural cache key), and
// Store.Generation identifies a store's labeling scheme: a plan's
// P-label ranges are minted by one shredding run, so caches holding
// prepared plans must key them by generation or risk serving stale
// label ranges after a store swap.
//
// Command blasd and package internal/server build the full daemon on
// these primitives: an HTTP front end with a generation-keyed prepared
// plan cache, a bounded result cache with explicit invalidation,
// admission control (429 past a concurrency limit, per-request
// timeouts) and graceful drain, publishing both StoreMetrics and its
// own counters over expvar-compatible endpoints.
//
// # Static guarantees
//
// The contracts above are machine-checked: cmd/blasvet runs the
// analyzer suite in internal/analysis over the whole tree, and CI
// treats any finding as a build break. The invariants and their
// analyzers:
//
//   - pagerpin — the pager pin contract. The []byte passed to a
//     pager.View/ViewCounted/Update callback is valid only until the
//     callback returns; the analyzer flags every way an alias of it can
//     escape (assigned or appended to outer state, stored through a
//     field, sent on a channel, returned, captured by a goroutine or a
//     closure that outlives the call). Copy out, never retain.
//   - hotalloc — zero-alloc hot paths. Functions annotated with a
//     //blas:hotpath directive in their doc comment (the twig sweep and
//     leaf fold, the relational merge join's inner loop, the join
//     arena's append, the binding span accessor, batched record decode,
//     the finalize loop, the nil-trace fast paths in internal/obs) must
//     not call fmt.Sprintf and friends, concatenate strings in loops,
//     or build map keys from strings; fmt.Errorf stays legal because
//     error paths are about to abort. Allocation guards prove the
//     property dynamically and the TestHotpathAnnotations test of each
//     such package fails if the annotation set drifts off the guarded
//     functions.
//   - lockescape — lock scope. While a sync.Mutex/RWMutex is held, no
//     buffer-pool re-entry (View, Update, Alloc, ...) and no calls
//     through function-typed parameters: pin the frame, unlock, then
//     run the callback.
//   - execctx — counter threading. Measured relstore entry points take
//     a per-query *relstore.ExecContext as their first parameter, and
//     relstore/pbtree/pager declare no package-level counter state.
//   - closecheck — teardown errors. A bare x.Close()/Flush()/Sync()
//     statement silently drops an error that can carry data loss;
//     handle it or write _ = x.Close() so the drop is explicit.
//
// Run the suite with:
//
//	go run ./cmd/blasvet ./...
//
// A deliberate violation is suppressed in place — the reason is
// mandatory, and unused or malformed directives are findings too:
//
//	//blas:ignore <analyzer> <reason>
//
// # Quick start
//
//	store, err := blas.BuildFromFile("catalog.xml", blas.Options{Dir: "catalog.blas"})
//	...
//	res, err := store.Query(`/catalog/book[author="Knuth"]/title`, blas.QueryOptions{})
//	for _, m := range res.Matches {
//	    fmt.Println(m.Path, m.Value)
//	}
package blas

import (
	"encoding/json"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/obs"
	"repro/internal/pager"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/sqlgen"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/uint128"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Options configures store construction and opening.
type Options struct {
	// Dir is the store directory; empty builds an in-memory store.
	Dir string
	// PoolPages sets the buffer pool capacity per relation file in 8 KiB
	// pages (0 = default, 512 pages = 4 MiB).
	PoolPages int
}

// ErrClosed is returned by Query, Explain and DropCaches once Close has
// been called on the Store.
var ErrClosed = errors.New("blas: store is closed")

// Store is an open BLAS store over one shredded document. After
// BuildFromFile/BuildFromString/Open return, the Store is safe for
// concurrent Query and Explain calls (see the package documentation's
// Concurrency section).
type Store struct {
	inner   *core.Store
	metrics *obs.Registry // lifetime query metrics, exposed via Metrics
	gen     uint64        // process-unique store generation, see Generation

	// Active-query refcount: Close waits for in-flight queries to drain
	// instead of closing the files out from under them, and operations
	// arriving after Close has begun fail with ErrClosed.
	mu        sync.Mutex
	idle      sync.Cond // signaled when active drops to zero and when closing completes
	active    int
	closed    bool
	closeDone bool
	closeErr  error
}

// storeGeneration issues process-unique generation numbers; see
// Store.Generation.
var storeGeneration atomic.Uint64

func newStore(inner *core.Store) *Store {
	s := &Store{inner: inner, metrics: obs.NewRegistry(), gen: storeGeneration.Add(1)}
	s.idle.L = &s.mu
	return s
}

// Generation returns the store's process-unique generation number. Every
// Store opened or built in this process gets a distinct generation, so
// anything derived from a store — a PreparedQuery, a cached result — can
// be keyed by generation and is automatically invalidated when the store
// is swapped for a newly opened one, even one over the same directory.
// A prepared plan depends on the store's P-label scheme; executing it
// against a different store silently selects the wrong label ranges,
// which is exactly the staleness generation keying prevents.
func (s *Store) Generation() uint64 { return s.gen }

// begin registers an in-flight operation, failing once Close has begun.
func (s *Store) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.active++
	return nil
}

// end retires an in-flight operation.
func (s *Store) end() {
	s.mu.Lock()
	s.active--
	if s.active == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// BuildFromFile shreds the XML document at path into a new store. The
// file is read twice (P-labeling needs the tag universe up front), in
// streaming fashion.
func BuildFromFile(path string, opts Options) (*Store, error) {
	st, err := core.BuildFromFile(path, core.Options{Dir: opts.Dir, PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	return newStore(st), nil
}

// BuildFromString shreds an XML document held in memory.
func BuildFromString(doc string, opts Options) (*Store, error) {
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		return nil, err
	}
	st, err := core.BuildFromTree(tree, core.Options{Dir: opts.Dir, PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	return newStore(st), nil
}

// Open opens a store previously built with a non-empty Options.Dir.
func Open(opts Options) (*Store, error) {
	st, err := core.Open(core.Options{Dir: opts.Dir, PoolPages: opts.PoolPages})
	if err != nil {
		return nil, err
	}
	return newStore(st), nil
}

// Close flushes and closes the store. It waits for in-flight queries to
// finish first; queries issued after Close has begun fail with
// ErrClosed. Close is idempotent, and concurrent or repeated calls all
// block until the store is actually closed, then return the same result
// — a nil return always means the files are flushed and closed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		for !s.closeDone {
			s.idle.Wait()
		}
		err := s.closeErr
		s.mu.Unlock()
		return err
	}
	s.closed = true
	for s.active > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()

	err := s.inner.Close()

	s.mu.Lock()
	s.closeErr = err
	s.closeDone = true
	s.idle.Broadcast()
	s.mu.Unlock()
	return err
}

// Translator selects the query translation strategy (§4.1).
type Translator string

// Translators. Auto follows the paper's recommendation: Unfold when
// schema information is available, Push-up otherwise.
const (
	TranslatorAuto   Translator = "auto"
	TranslatorDLabel Translator = "dlabel" // pure D-labeling baseline
	TranslatorSplit  Translator = "split"
	TranslatorPushUp Translator = "pushup"
	TranslatorUnfold Translator = "unfold"
)

// Engine selects the query engine (§5).
type Engine string

// Engines.
const (
	EngineRelational Engine = "relational"
	EngineTwig       Engine = "twig"
)

// QueryOptions configures one query execution. The zero value uses the
// Auto translator on the relational engine.
type QueryOptions struct {
	Translator Translator
	Engine     Engine
	// Parallelism is ignored: a query runs on its calling goroutine.
	// It exists only for benchmark/ and goes with ROADMAP item 1(d).
	Parallelism int
	// Trace records a per-phase wall-time breakdown of the execution,
	// returned in ExecStats.Phases. Off by default; the untraced path
	// performs no extra allocations or clock reads.
	Trace bool
	// NoReorder skips the physical planner's selectivity probes and
	// executes the translator's fixed fragment and join order — the A/B
	// escape hatch for debugging plan-order differences. Off by default
	// (greedy most-selective-first ordering).
	NoReorder bool
}

// Match is one result node. The JSON field names are the wire format
// blasd's POST /query responses use.
type Match struct {
	Start uint32 `json:"start"`           // position of the node's start tag
	End   uint32 `json:"end"`             // position of the node's end tag
	Level uint16 `json:"level"`           // depth (root = 1)
	Tag   string `json:"tag"`             // element tag ("@name" for attributes)
	Value string `json:"value,omitempty"` // text value ("" if none)
	Path  string `json:"path"`            // the node's source path, e.g. /site/people/person
}

// Result holds a query's matches plus execution statistics.
type Result struct {
	Matches []Match
	Stats   ExecStats
}

// ExecStats describes one execution. It marshals to JSON with
// nanosecond duration fields (the blasquery -stats json format).
type ExecStats struct {
	Translator Translator `json:"translator"`
	Engine     Engine     `json:"engine"`
	// Elapsed is the full query latency: always exactly
	// PlanElapsed + ExecElapsed, each measured once.
	Elapsed time.Duration `json:"elapsed_ns"`
	// PlanElapsed is the parse + translate + physical planning share of
	// Elapsed.
	PlanElapsed time.Duration `json:"plan_elapsed_ns"`
	// ExecElapsed is the execution share of Elapsed: engine run plus
	// match finalization.
	ExecElapsed     time.Duration `json:"exec_elapsed_ns"`
	VisitedElements uint64        `json:"visited_elements"` // records decoded from the relations
	PageReads       uint64        `json:"page_reads"`       // buffer pool requests (incl. planner probes)
	PageMisses      uint64        `json:"page_misses"`      // buffer pool misses (the paper's disk accesses)
	Joins           int           `json:"joins"`            // D-joins in the plan
	Note            string        `json:"note,omitempty"`   // plan degradation note, if any
	// EarlyTerminated reports that execution was cut short because an
	// intermediate (or the planner's selectivity probe) proved the result
	// empty before all scans and joins ran.
	EarlyTerminated bool `json:"early_terminated,omitempty"`
	// Phases is the per-phase wall-time breakdown; nil unless
	// QueryOptions.Trace was set.
	Phases *PhaseBreakdown `json:"phases,omitempty"`
}

// PhaseBreakdown splits one traced query's wall time across the
// pipeline phases, as measured on the coordinating goroutine. Parse,
// Translate and Order tile PlanElapsed (Order is the physical planner:
// selectivity probes plus the greedy ordering); Scan, Join, Sweep and
// Finalize tile ExecElapsed (Sweep is twig-only, and on the twig engine
// Scan covers stream preparation while the actual reading happens
// inside Sweep). The gap between Elapsed and the sum of those phases is
// uninstrumented glue and stays small.
//
// Decode is different: it is the cumulative time the batch layer spent
// decoding heap-page records (with DecodedRecords counting how many).
// It overlaps Scan/Sweep rather than adding to them.
//
// PrefetchStall is always zero: every stream is read on the goroutine
// that sweeps it. Partitions is always nil: the twig engine runs one
// sweep. Both exist only for benchmark/ and go with ROADMAP item 1 (the
// benchmark harness).
type PhaseBreakdown struct {
	Parse         time.Duration `json:"parse_ns"`
	Translate     time.Duration `json:"translate_ns"`
	Order         time.Duration `json:"order_ns"`
	Scan          time.Duration `json:"scan_ns"`
	Join          time.Duration `json:"join_ns"`
	Sweep         time.Duration `json:"sweep_ns"`
	Finalize      time.Duration `json:"finalize_ns"`
	Decode        time.Duration `json:"decode_ns"`
	PrefetchStall time.Duration `json:"prefetch_stall_ns"` // always zero
	// DecodedRecords is the number of heap records the batch layer
	// decoded during the Decode time (visited elements, counted at the
	// page-decode loops).
	DecodedRecords uint64   `json:"decoded_records"`
	Partitions     []uint64 `json:"partitions,omitempty"` // always nil
}

func phaseBreakdown(s obs.TraceSnapshot) *PhaseBreakdown {
	return &PhaseBreakdown{
		Parse:          s.Span(obs.PhaseParse),
		Translate:      s.Span(obs.PhaseTranslate),
		Order:          s.Span(obs.PhaseOrder),
		Scan:           s.Span(obs.PhaseScan),
		Join:           s.Span(obs.PhaseJoin),
		Sweep:          s.Span(obs.PhaseSweep),
		Finalize:       s.Span(obs.PhaseFinalize),
		Decode:         s.Span(obs.PhaseDecode),
		DecodedRecords: s.DecodedRecords,
	}
}

// Query parses, translates and executes an XPath expression. It is safe
// to call concurrently from any number of goroutines. It returns
// ErrClosed once Close has been called.
func (s *Store) Query(query string, opts QueryOptions) (*Result, error) {
	return s.run(query, nil, opts)
}

// run plans query, unless phys is a prepared plan, then executes the
// plan and assembles the Result. It registers the operation (begin)
// and balances QueryBegin with QueryDone or QueryFailed. The execution
// context is created before planning, so the planner's selectivity
// probe page reads land in this query's ExecStats. The engine runs in
// an arena of run's own, released once finalize has copied the answer
// into the matches: a warm query allocates no binding, solution or
// join-row chunk.
func (s *Store) run(query string, phys *planner.Physical, opts QueryOptions) (*Result, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	s.metrics.QueryBegin()
	var trace *obs.Trace
	if opts.Trace {
		trace = obs.NewTrace()
	}
	ctx := relstore.NewExecContext()
	ctx.SetTrace(trace)
	var planElapsed time.Duration
	if phys == nil {
		planBegin := time.Now()
		var err error
		if phys, err = s.plan(ctx, query, opts, trace); err != nil {
			s.metrics.QueryFailed()
			return nil, err
		}
		planElapsed = time.Since(planBegin)
	}
	lp := phys.Logical
	execBegin := time.Now()
	arena := core.NewArena()
	var res *core.Result
	var err error
	switch engineOf(opts) {
	case EngineTwig:
		res, err = twig.Run(ctx, arena, s.inner, phys)
	default:
		res, err = relengine.Run(ctx, arena, s.inner, phys)
	}
	if err != nil {
		arena.Release()
		s.metrics.QueryFailed()
		return nil, err
	}
	recs := s.finalizeMatches(ctx, res.Return)
	arena.Release()
	early := res.EarlyTerminated
	execElapsed := time.Since(execBegin)

	stats := ExecStats{
		Translator:      Translator(lp.Translator),
		Engine:          engineOf(opts),
		Elapsed:         planElapsed + execElapsed,
		PlanElapsed:     planElapsed,
		ExecElapsed:     execElapsed,
		VisitedElements: ctx.Visited(),
		PageReads:       ctx.PageReads(),
		PageMisses:      ctx.PageMisses(),
		Joins:           lp.NumJoins(),
		Note:            lp.Note,
		EarlyTerminated: early,
	}
	if trace != nil {
		stats.Phases = phaseBreakdown(trace.Snapshot())
	}
	if early {
		s.metrics.EarlyTermination()
	}
	s.metrics.QueryDone(string(stats.Engine), string(stats.Translator), stats.Elapsed,
		stats.VisitedElements, stats.PageReads, stats.PageMisses)
	return &Result{Matches: recs, Stats: stats}, nil
}

func engineOf(opts QueryOptions) Engine {
	if opts.Engine == "" {
		return EngineRelational
	}
	return opts.Engine
}

// plan runs the full planning pipeline: parse, translate (the logical
// plan), then the physical planner's selectivity-ordered pass. Probe
// page reads are accounted to ctx.
func (s *Store) plan(ctx *relstore.ExecContext, query string, opts QueryOptions, trace *obs.Trace) (*planner.Physical, error) {
	parseBegin := trace.Begin()
	q, err := xpath.Parse(query)
	trace.End(obs.PhaseParse, parseBegin)
	if err != nil {
		return nil, err
	}
	tctx := translate.Context{Scheme: s.inner.Scheme(), Schema: s.inner.Schema()}
	name := s.EffectiveTranslator(opts.Translator)
	translateBegin := trace.Begin()
	tr, err := translate.ByName(string(name))
	if err != nil {
		trace.End(obs.PhaseTranslate, translateBegin)
		return nil, err
	}
	lp, err := tr(tctx, q)
	trace.End(obs.PhaseTranslate, translateBegin)
	if err != nil {
		return nil, err
	}
	orderBegin := trace.Begin()
	phys, err := planner.Plan(ctx, s.inner, lp, planner.Options{NoReorder: opts.NoReorder})
	trace.End(obs.PhaseOrder, orderBegin)
	return phys, err
}

// EffectiveTranslator resolves the translator that Query and Prepare
// will actually use: the empty string and TranslatorAuto follow the
// paper's §5 recommendation (Unfold when the store has schema
// information, Push-up otherwise); any other value is returned as given.
// Cache layers key prepared plans by the effective translator so "auto"
// and its resolution share one entry.
func (s *Store) EffectiveTranslator(t Translator) Translator {
	if t == "" || t == TranslatorAuto {
		if s.inner.Schema() != nil {
			return TranslatorUnfold
		}
		return TranslatorPushUp
	}
	return t
}

// NormalizeQuery parses an XPath expression and renders it in the
// canonical form used as a cache key: whitespace and literal quote style
// are erased, structure is preserved. Two queries with equal normal
// forms produce identical plans and results on the same store.
func NormalizeQuery(query string) (string, error) {
	q, err := xpath.Parse(query)
	if err != nil {
		return "", err
	}
	return q.String(), nil
}

// PreparedQuery is a query planned once — parsed, translated and
// physically ordered — executable many times without paying the
// planning cost again (the PlanElapsed share of a Query call). A
// PreparedQuery is immutable and safe for concurrent Query calls from
// any number of goroutines, on either engine; the underlying physical
// plan is never mutated by execution (see packages translate and
// planner).
//
// A PreparedQuery is bound to the Store that prepared it: the plan's
// P-label ranges and the planner's selectivity estimates both come from
// that store, so it must not be executed against any other store. Cache
// layers must key prepared queries by Store.Generation — see Generation
// for the failure mode.
type PreparedQuery struct {
	store *Store
	phys  *planner.Physical
	norm  string
	gen   uint64
}

// Prepare parses, translates and physically plans a query for repeated
// execution. opts.Translator selects the translation strategy (resolved
// as in Query) and opts.NoReorder fixes the translated order — both are
// plan-time choices baked into the PreparedQuery. The other option
// fields are ignored: they are choices made per execution, not per
// plan. The planner's selectivity probe page reads are paid here, once,
// and are not attributed to any later execution's ExecStats. Prepare
// returns ErrClosed once Close has been called.
func (s *Store) Prepare(query string, opts QueryOptions) (*PreparedQuery, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	phys, err := s.plan(relstore.NewExecContext(), query, opts, nil)
	if err != nil {
		return nil, err
	}
	return &PreparedQuery{store: s, phys: phys, norm: phys.Logical.Source.String(), gen: s.gen}, nil
}

// Normalized returns the canonical rendering of the prepared query (see
// NormalizeQuery).
func (p *PreparedQuery) Normalized() string { return p.norm }

// Translator returns the effective translator the plan was built with.
func (p *PreparedQuery) Translator() Translator { return Translator(p.phys.Logical.Translator) }

// Generation returns the generation of the Store this query was
// prepared against.
func (p *PreparedQuery) Generation() uint64 { return p.gen }

// Joins returns the number of D-joins in the prepared plan.
func (p *PreparedQuery) Joins() int { return p.phys.Logical.NumJoins() }

// Query executes the prepared plan. opts.Engine and opts.Trace apply
// as in Store.Query; opts.Translator is ignored (the plan is fixed at
// Prepare time). The returned ExecStats has PlanElapsed zero — planning
// was paid once, in Prepare — so Elapsed is pure execution time. It
// returns ErrClosed once the store's Close has been called.
func (p *PreparedQuery) Query(opts QueryOptions) (*Result, error) {
	return p.store.run("", p.phys, opts)
}

// finalizeMatches renders the engine's answer into Matches under a
// PhaseFinalize span when the context carries a trace.
func (s *Store) finalizeMatches(ctx *relstore.ExecContext, v core.View) []Match {
	tr := ctx.Trace()
	begin := tr.Begin()
	out := s.matches(v)
	tr.End(obs.PhaseFinalize, begin)
	return out
}

// matches is the finalize loop: one Match per binding of the engine's
// answer, read in place from its return arena — the only copy of the
// return column a query makes — and named through the store's label
// intern table (core.Store.Names). The view is already deduplicated,
// so the []Match is allocated once at exact size. Results arrive in
// document order, where runs of one P-label are common, so the table is
// consulted only when the label changes; the loop itself allocates
// nothing but the []Match.
//
//blas:hotpath
func (s *Store) matches(v core.View) []Match {
	out := make([]Match, v.Len())
	var names core.NodeNames
	var last uint128.Uint128
	for i := range out {
		r := v.At(i)
		if i == 0 || r.PLabel != last {
			names, last = s.inner.Names(r.PLabel, r.TagID), r.PLabel
		}
		out[i] = Match{Start: r.Start, End: r.End, Level: r.Level, Tag: names.Tag, Value: r.Data, Path: names.Path}
	}
	return out
}

// Explanation describes how a query would be executed.
type Explanation struct {
	Translator Translator
	PlanText   string // fragment/join structure (the logical plan)
	OrderText  string // physical order: scans and joins with estimates
	Reordered  bool   // greedy ordering ran (false under NoReorder)
	SQL        string // the generated SQL statement
	Algebra    string // relational algebra (paper Fig. 11 style)
	Joins      int
	EqSels     int // equality selections
	RangeSels  int // range selections
	Note       string
}

// Explain translates and physically plans a query, rendering its
// logical plan, chosen execution order (with the planner's per-fragment
// run-length estimates), SQL and algebra without executing it. It
// returns ErrClosed once Close has been called.
func (s *Store) Explain(query string, opts QueryOptions) (*Explanation, error) {
	if err := s.begin(); err != nil {
		return nil, err
	}
	defer s.end()
	phys, err := s.plan(relstore.NewExecContext(), query, opts, nil)
	if err != nil {
		return nil, err
	}
	lp := phys.Logical
	eq, rng := lp.SelectionKinds()
	return &Explanation{
		Translator: Translator(lp.Translator),
		PlanText:   lp.String(),
		OrderText:  phys.String(),
		Reordered:  phys.Reordered,
		SQL:        sqlgen.SQL(lp),
		Algebra:    sqlgen.Algebra(lp),
		Joins:      lp.NumJoins(),
		EqSels:     eq,
		RangeSels:  rng,
		Note:       lp.Note,
	}, nil
}

// StoreStats describes the shredded document and the current state of
// its relation files' buffer pools.
type StoreStats struct {
	Nodes    uint64 // element + attribute nodes
	Tags     int    // distinct tags
	MaxDepth int
	SP       PoolStats // buffer pool of the SP (P-label) relation file
	SD       PoolStats // buffer pool of the SD (D-label) relation file
}

// PoolStats is a point-in-time snapshot of one relation file's buffer
// pool, cumulative since open (or the last cache drop's ResetStats).
type PoolStats struct {
	Shards    int    `json:"shards"` // lock-striped pool shards
	Reads     uint64 `json:"reads"`  // page requests
	Hits      uint64 `json:"hits"`   // requests served from the pool
	Misses    uint64 `json:"misses"` // requests that fetched from the backing file
	Evictions uint64 `json:"evictions"`
}

func poolStats(f *pager.File) PoolStats {
	st := f.Stats()
	return PoolStats{
		Shards:    f.NumShards(),
		Reads:     st.Reads,
		Hits:      st.Hits(),
		Misses:    st.Misses,
		Evictions: st.Evictions,
	}
}

// Stats returns the store's document statistics and buffer pool
// snapshots.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Nodes:    s.inner.NodeCount(),
		Tags:     s.inner.Scheme().NumTags(),
		MaxDepth: s.inner.Schema().MaxDepth(),
		SP:       poolStats(s.inner.SP().File()),
		SD:       poolStats(s.inner.SD().File()),
	}
}

// LatencyBucket is one occupied bucket of a latency histogram:
// UpperBound is the bucket's inclusive upper bound (0 = unbounded, the
// overflow bucket) and Count the number of queries that landed in it.
type LatencyBucket struct {
	UpperBound time.Duration `json:"upper_bound_ns"`
	Count      uint64        `json:"count"`
}

// LatencyHistogram summarizes a bounded exponential latency histogram.
// Count always equals the sum of the bucket counts, even when the
// snapshot raced in-flight queries.
type LatencyHistogram struct {
	Count uint64        `json:"count"`
	Sum   time.Duration `json:"sum_ns"`
	Mean  time.Duration `json:"mean_ns"`
	P50   time.Duration `json:"p50_ns"` // bucket upper bounds, not exact quantiles
	P95   time.Duration `json:"p95_ns"`
	P99   time.Duration `json:"p99_ns"`
	// Buckets lists the occupied buckets only, in ascending bound order.
	Buckets []LatencyBucket `json:"buckets,omitempty"`
}

func latencyHistogram(h obs.HistogramSnapshot) LatencyHistogram {
	l := LatencyHistogram{
		Count: h.Count,
		Sum:   time.Duration(h.Sum),
		Mean:  h.Mean(),
		P50:   h.Quantile(0.50),
		P95:   h.Quantile(0.95),
		P99:   h.Quantile(0.99),
	}
	for i, c := range h.Buckets {
		if c != 0 {
			l.Buckets = append(l.Buckets, LatencyBucket{UpperBound: obs.BucketBound(i), Count: c})
		}
	}
	return l
}

// PoolMetrics is one relation file's buffer pool traffic, including the
// per-shard split that shows whether page requests spread across the
// lock stripes.
type PoolMetrics struct {
	PoolStats
	PerShard []PoolShardStats `json:"per_shard"`
}

// PoolShardStats is one pool shard's share of the traffic.
type PoolShardStats struct {
	Reads     uint64 `json:"reads"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

func poolMetrics(f *pager.File) PoolMetrics {
	m := PoolMetrics{PoolStats: poolStats(f)}
	for _, sh := range f.ShardStats() {
		m.PerShard = append(m.PerShard, PoolShardStats{Reads: sh.Reads, Misses: sh.Misses, Evictions: sh.Evictions})
	}
	return m
}

// StoreMetrics is a snapshot of a store's lifetime query metrics. A
// snapshot taken while queries are in flight is internally consistent:
// Queries always equals Latency.Count (both derive from the same bucket
// loads), and successive snapshots never observe a counter moving
// backwards.
//
// StoreMetrics marshals to JSON, and String returns that JSON, so the
// type satisfies expvar.Var; to publish live metrics use
// expvar.Func(func() any { return store.Metrics() }).
type StoreMetrics struct {
	InFlight    int64  `json:"in_flight"`
	Queries     uint64 `json:"queries"`
	QueryErrors uint64 `json:"query_errors"`
	// EarlyTerminations counts queries whose execution was cut short by
	// an empty intermediate or a planner probe that proved the plan empty.
	EarlyTerminations uint64                      `json:"early_terminations"`
	VisitedElements   uint64                      `json:"visited_elements"`
	PageReads         uint64                      `json:"page_reads"`
	PageMisses        uint64                      `json:"page_misses"`
	Latency           LatencyHistogram            `json:"latency"`
	ByEngine          map[string]LatencyHistogram `json:"queries_by_engine"`
	ByTranslator      map[string]uint64           `json:"queries_by_translator"`
	// Pools maps relation name ("sp", "sd") to its buffer pool traffic.
	Pools map[string]PoolMetrics `json:"pools"`
}

// String renders the snapshot as JSON (the expvar.Var contract).
func (m StoreMetrics) String() string {
	b, err := json.Marshal(m)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// Metrics snapshots the store's lifetime query metrics. It is safe to
// call concurrently with queries and remains callable after Close.
func (s *Store) Metrics() StoreMetrics {
	r := s.metrics.Snapshot()
	m := StoreMetrics{
		InFlight:          r.InFlight,
		Queries:           r.Queries,
		QueryErrors:       r.Errors,
		EarlyTerminations: r.EarlyTerms,
		VisitedElements:   r.Visited,
		PageReads:         r.PageReads,
		PageMisses:        r.PageMisses,
		Latency:           latencyHistogram(r.Latency),
		ByEngine:          make(map[string]LatencyHistogram, len(r.ByEngine)),
		ByTranslator:      r.ByTranslator,
		Pools: map[string]PoolMetrics{
			"sp": poolMetrics(s.inner.SP().File()),
			"sd": poolMetrics(s.inner.SD().File()),
		},
	}
	for name, h := range r.ByEngine {
		m.ByEngine[name] = latencyHistogram(h)
	}
	return m
}

// DropCaches empties the buffer pools, simulating a cold cache (the
// paper's measurement condition). It may run concurrently with queries
// (see the Concurrency section) and returns ErrClosed once Close has
// been called.
func (s *Store) DropCaches() error {
	if err := s.begin(); err != nil {
		return err
	}
	defer s.end()
	return s.inner.DropCaches()
}

// DatasetOptions configures GenerateDataset.
type DatasetOptions struct {
	Seed   int64
	Factor int // entity multiplier; 1 reproduces the paper's Fig. 12 scale
}

// Datasets lists the generator names: shakespeare, protein, auction.
func Datasets() []string { return datagen.Names() }

// GenerateDataset writes one of the paper's synthetic data sets as an XML
// document.
func GenerateDataset(w io.Writer, name string, opts DatasetOptions) error {
	root, err := datagen.ByName(strings.ToLower(name), datagen.Options{Seed: opts.Seed, Factor: opts.Factor})
	if err != nil {
		return err
	}
	return xmltree.WriteXML(w, root)
}

// Version identifies the reproduction release.
const Version = "1.0.0"

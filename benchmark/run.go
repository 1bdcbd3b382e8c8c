package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	blas "repro"
)

// spec fixes one workload's sizing. The seed changes the document's
// content, never these.
type spec struct {
	name        string
	factor      int // datagen.Auction factor of the document
	poolPages   int // blas.Options.PoolPages of the measured store (0 = default)
	parallelism int // QueryOptions.Parallelism of timed queries
	cold        bool
	setups      int // set-up repetitions; setup_s is their median
}

// Sizing: factor 8 is ~480 k nodes and an ~85 MB store, ten times the
// default 2 x 4 MiB pool. serve_open uses factor 2 because its oracle
// evaluates ~430 distinct queries, each a full walk of the tree.
var specs = []spec{
	{name: "query_cold", factor: 8, parallelism: 1, cold: true, setups: 3},
	{name: "query_warm", factor: 8, poolPages: 8192, parallelism: 1, setups: 3},
	{name: "serve_open", factor: 2, setups: 3},
	{name: "build", factor: 8, parallelism: 1, setups: 3},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// runConfig is one benchmark invocation.
type runConfig struct {
	Workload string
	Seed     int64
	Seconds  float64 // length of the timed phase
	Trace    bool    // per-layer pass instead of the end-to-end pass
	Quick    bool    // self-test sizing; never used for reported numbers
	WorkDir  string  // parent of the run's temporary directory
	Spans    string  // file the traced pass writes its spans to ("" = none)
}

// runResult is what one invocation reports.
type runResult struct {
	Workload  string
	Trace     bool
	Attempted int
	Failed    int
	Metrics   map[string]metric
	// Info holds numbers that help read the metrics (per-rate latencies,
	// max_rate_ok_per_s, sizes) but are not declared in BENCHMARK.json.
	Info       map[string]metric
	FirstError string
}

func (r *runResult) set(name string, value float64, unit string, samples int) {
	r.Metrics[name] = metric{Value: value, Unit: unit, Samples: samples}
}

func (r *runResult) info(name string, value float64, unit string, samples int) {
	r.Info[name] = metric{Value: value, Unit: unit, Samples: samples}
}

// fail records a failed operation: an error, a refusal or a wrong result.
func (r *runResult) fail(err error) {
	r.Failed++
	if r.FirstError == "" {
		r.FirstError = err.Error()
	}
}

// env is the state of one run.
type env struct {
	cfg    runConfig
	spec   spec
	dir    string
	rnd    *rand.Rand
	doc    *document
	ops    []variant // the timed phase's operations, in issue order
	oracle *oracle
	res    *runResult
	heap   *heapSampler

	// Samples every workload takes while setting up (build: while running).
	setups     durations
	builds     durations
	reopens    durations
	nodes      uint64
	storeBytes int64
}

// run executes one workload once.
func run(cfg runConfig) (*runResult, error) {
	sp, ok := specByName(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	if cfg.Quick {
		sp.factor, sp.setups = 1, 1
	}
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, cfg.Workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{
		cfg: cfg, spec: sp, dir: dir,
		rnd: rand.New(rand.NewSource(cfg.Seed)),
		res: &runResult{Workload: cfg.Workload, Trace: cfg.Trace, Metrics: map[string]metric{}, Info: map[string]metric{}},
	}
	if err := e.prepareInputs(); err != nil {
		return nil, err
	}
	e.heap = startHeapSampler()
	defer e.heap.stop()
	switch {
	case cfg.Trace:
		err = e.runTraced()
	case sp.name == "serve_open":
		err = e.runServe()
	case sp.name == "build":
		err = e.runBuild()
	default:
		err = e.runQuery()
	}
	if err != nil {
		return nil, err
	}
	if !cfg.Trace {
		e.reportCommon()
	}
	return e.res, nil
}

// prepareInputs generates the document, the operation list and the
// oracle from the seed, then drops the tree: the program under test only
// ever sees the XML file.
func (e *env) prepareInputs() error {
	// The build workload has no store to prepare; its set-up is making
	// the input file, so that is what it repeats for setup_s.
	reps := 1
	if e.spec.name == "build" && !e.cfg.Trace {
		reps = e.spec.setups
	}
	for i := 0; i < reps; i++ {
		begin := time.Now()
		doc, err := generateDocument(e.dir, "auction.xml", e.cfg.Seed, e.spec.factor)
		if err != nil {
			return err
		}
		e.doc = doc
		if e.spec.name == "build" {
			e.setups = append(e.setups, time.Since(begin))
		}
	}
	if e.spec.name == "serve_open" {
		limit := 0
		if e.cfg.Quick {
			limit = 60
		}
		e.ops = population(e.doc.tree, limit)
	} else {
		e.ops = shuffled(mixAuctionV1(), e.rnd)
	}
	o, err := newOracle(e.doc.tree, distinctQueries(e.ops))
	if err != nil {
		return err
	}
	e.oracle = o
	e.doc.tree = nil
	runtime.GC()
	return nil
}

// opts returns the store options of the measured store.
func (e *env) opts(dir string) blas.Options {
	return blas.Options{Dir: dir, PoolPages: e.spec.poolPages}
}

// reopenCount is how often each built store is reopened for
// blas.open_first_query_ms.
const reopenCount = 15

// buildStore runs the blasload path once: BuildFromFile into dir
// including Close, and returns how long that took.
func (e *env) buildStore(dir string) (time.Duration, error) {
	begin := time.Now()
	st, err := blas.BuildFromFile(e.doc.xmlPath, blas.Options{Dir: dir})
	if err != nil {
		return 0, err
	}
	e.nodes = st.Stats().Nodes
	if err := st.Close(); err != nil {
		return 0, err
	}
	took := time.Since(begin)
	e.builds = append(e.builds, took)
	e.res.Attempted++
	e.storeBytes, err = dirBytes(dir)
	return took, err
}

// reopenStore times blas.Open to the first verified V2 result — what a
// blasd restart pays — reopenCount times. Each reopen starts from a
// collected heap: Open allocates the buffer pools, and whether that
// memory is recycled or fresh from the operating system otherwise
// depends on where the collector happened to be.
func (e *env) reopenStore(dir string) error {
	n := reopenCount
	if e.cfg.Quick {
		n = 3
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		begin := time.Now()
		st, err := blas.Open(blas.Options{Dir: dir})
		if err != nil {
			return err
		}
		res, err := st.Query(queryV2, blas.QueryOptions{})
		took := time.Since(begin)
		e.res.Attempted++
		if err == nil {
			err = e.oracle.verifyMatches(queryV2, res.Matches)
		}
		if err != nil {
			e.res.fail(err)
		} else {
			e.reopens = append(e.reopens, took)
		}
		if err := st.Close(); err != nil {
			return err
		}
	}
	return nil
}

// setUp performs the workload's set-up spec.setups times — build the
// store, open it with the workload's pool, run warm — and keeps the last
// store. warm returns what must be torn down before the store closes.
// The reopen measurements in between are not part of the set-up time.
func (e *env) setUp(warm func(st *blas.Store) (teardown func(), err error)) (*blas.Store, func(), error) {
	for i := 0; ; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("store-%d", i))
		built, err := e.buildStore(dir)
		if err != nil {
			return nil, nil, err
		}
		if err := e.reopenStore(dir); err != nil {
			return nil, nil, err
		}
		begin := time.Now()
		st, err := blas.Open(e.opts(dir))
		if err != nil {
			return nil, nil, err
		}
		teardown, err := warm(st)
		if err != nil {
			_ = st.Close()
			return nil, nil, err
		}
		e.setups = append(e.setups, built+time.Since(begin))
		if i == e.spec.setups-1 {
			return st, teardown, nil
		}
		teardown()
		if err := st.Close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// reportCommon emits the end-to-end metrics every workload measures the
// same way: from its set-up repetitions and the heap sampler.
func (e *env) reportCommon() {
	e.res.set("setup_s", e.setups.median().Seconds(), "s", len(e.setups))
	e.res.set("build_knodes_per_s", ratio(float64(e.nodes)/1000, e.builds.median().Seconds()), "1000/s", len(e.builds))
	e.res.set("store_bytes_per_doc_byte", ratio(float64(e.storeBytes), float64(e.doc.xmlBytes)), "ratio", 1)
	e.res.info("open_first_query_ms", ms(e.reopens.median()), "ms", len(e.reopens))
	e.res.set("peak_heap_mb", float64(e.heap.stop())/(1<<20), "MiB", e.heap.samples)
	e.res.info("doc_nodes", float64(e.nodes), "count", 1)
	e.res.info("doc_mb", float64(e.doc.xmlBytes)/(1<<20), "MiB", 1)
	e.res.info("store_mb", float64(e.storeBytes)/(1<<20), "MiB", 1)
}

// querySamples is what a closed loop of Store.Query calls measured.
type querySamples struct {
	latencies
	passes        durations // wall time of each complete pass over the operations
	reads, misses uint64
	allocBytes    uint64
}

// report emits the query-phase end-to-end metrics. Throughput is the
// operations of a pass over the median pass time, so that a stall during
// a few passes does not move it.
func (q *querySamples) report(res *runResult, opsPerPass int) {
	n := len(q.all)
	res.set("q_per_s", ratio(float64(opsPerPass), q.passes.median().Seconds()), "1/s", n)
	q.latencies.report(res)
	res.set("alloc_kb_per_q", ratio(float64(q.allocBytes)/1024, float64(n)), "KiB", n)
	res.set("page_reads_per_q", ratio(float64(q.reads), float64(n)), "count", n)
	res.info("page_misses_per_q", ratio(float64(q.misses), float64(n)), "count", n)
}

// queryLoop issues ops round-robin from one client, each Store.Query
// verified against the oracle. more is asked before each pass over the
// operations whether to run it, given how many ran so far: the loop only
// ever runs whole passes, so every sample set has the mix's exact
// composition. Under the cold
// protocol (paper §5.1) the pools are emptied before every query; that
// is part of a pass's wall time but not of the query's latency.
func (e *env) queryLoop(st *blas.Store, q *querySamples, more func(done int) bool) error {
	alloc0 := heapAllocBytes()
	var passBegin time.Time
	for i := 0; ; i++ {
		if i%len(e.ops) == 0 {
			now := time.Now()
			if i > 0 {
				q.passes = append(q.passes, now.Sub(passBegin))
			}
			if !more(i) {
				break
			}
			passBegin = now
		}
		v := e.ops[i%len(e.ops)]
		if e.spec.cold {
			if err := st.DropCaches(); err != nil {
				return err
			}
		}
		t0 := time.Now()
		res, err := st.Query(v.Query, blas.QueryOptions{Engine: v.Engine, Translator: v.Translator, Parallelism: e.spec.parallelism})
		took := time.Since(t0)
		e.res.Attempted++
		if err == nil {
			err = e.oracle.verifyMatches(v.Query, res.Matches)
		}
		if err != nil {
			e.res.fail(fmt.Errorf("%s: %w", v.Name, err))
			continue
		}
		q.add(v, took)
		q.reads += res.Stats.PageReads
		q.misses += res.Stats.PageMisses
	}
	q.allocBytes += heapAllocBytes() - alloc0
	return nil
}

// passes is a queryLoop stop condition: n passes over the operations.
func (e *env) passes(n int) func(int) bool {
	return func(done int) bool { return done < n*len(e.ops) }
}

// until is a stop condition: keep going for d.
func until(d time.Duration) func(int) bool {
	deadline := time.Now().Add(d)
	return func(int) bool { return time.Now().Before(deadline) }
}

func (e *env) timed() time.Duration {
	return time.Duration(e.cfg.Seconds * float64(time.Second))
}

// runQuery is query_cold and query_warm: set up, then one client in a
// closed loop over the mix for the timed phase.
func (e *env) runQuery() error {
	st, _, err := e.setUp(func(st *blas.Store) (func(), error) {
		var warm querySamples
		return func() {}, e.queryLoop(st, &warm, e.passes(1))
	})
	if err != nil {
		return err
	}
	defer st.Close()
	var q querySamples
	if err := e.queryLoop(st, &q, until(e.timed())); err != nil {
		return err
	}
	if !e.spec.cold && q.misses != 0 {
		e.res.fail(fmt.Errorf("query_warm: %d page misses in the timed phase, want 0", q.misses))
	}
	q.report(e.res, len(e.ops))
	return st.Close()
}

// runBuild is the build workload: the blasload path again and again,
// each store reopened and read back through the mix before it is
// removed, so a format change that buys build speed with read cost (or
// the reverse) shows in one place.
func (e *env) runBuild() error {
	var q querySamples
	passes := 4
	if e.cfg.Quick {
		passes = 1
	}
	more := until(e.timed())
	for i := 0; i < 2 || more(i); i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("store-%d", i))
		if _, err := e.buildStore(dir); err != nil {
			return err
		}
		if err := e.reopenStore(dir); err != nil {
			return err
		}
		st, err := blas.Open(e.opts(dir))
		if err != nil {
			return err
		}
		err = e.queryLoop(st, &q, e.passes(passes))
		if cerr := st.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	q.report(e.res, len(e.ops))
	return nil
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, ent := range entries {
		fi, err := ent.Info()
		if err != nil {
			return 0, err
		}
		total += fi.Size()
	}
	return total, nil
}

// heapAllocBytes is the cumulative bytes allocated on the heap
// (MemStats.TotalAlloc) read without stopping the world.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// heapSampler tracks the maximum of MemStats.HeapInuse (heap objects
// plus unused space in their spans), sampled every 10 ms through
// runtime/metrics so the timed operations are not paused.
type heapSampler struct {
	done    chan struct{}
	wg      sync.WaitGroup
	once    sync.Once
	peak    uint64
	samples int
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}, {Name: "/memory/classes/heap/unused:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64() + s[1].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			h.samples++
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak; it may be called repeatedly.
func (h *heapSampler) stop() uint64 {
	h.once.Do(func() { close(h.done) })
	h.wg.Wait()
	return h.peak
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	blas "repro"
	"repro/internal/server"
)

// Open-loop rates of serve_open in requests per second, and the p95
// limit a rate must meet (latency from due time). They were calibrated
// once, on the commit that added the benchmark, to about 20/40/80/160 %
// of the closed-loop capacity measured there with two connections
// (see README.md); they are constants so that every later commit is
// offered the same load. They are never derived at run time.
var serveRates = [4]float64{1250, 2500, 5000, 10000}

const serveP95LimitMs = 25.0

// connections is the number of keep-alive connections, and so of load
// goroutines: the sandbox has two cores.
const connections = 2

// Shares of the timed phase: the closed loop, then the four open-loop
// windows.
var serveShares = [5]float64{0.4, 0.15, 0.15, 0.15, 0.15}

// loadClient issues POST /query requests and verifies every response.
type loadClient struct {
	url    string
	http   *http.Client
	oracle *oracle
	bodies [][]byte // encoded request per operation
	ops    []variant
}

func newLoadClient(url string, ops []variant, o *oracle) (*loadClient, error) {
	c := &loadClient{
		url:    url + "/query",
		oracle: o,
		ops:    ops,
		http: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     connections,
			MaxIdleConnsPerHost: connections,
		}},
	}
	for _, v := range ops {
		req := server.QueryRequest{Query: v.Query, Engine: string(v.Engine)}
		if v.Translator != blas.TranslatorAuto {
			req.Translator = string(v.Translator)
		}
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		c.bodies = append(c.bodies, b)
	}
	return c, nil
}

func (c *loadClient) close() { c.http.CloseIdleConnections() }

// reply is one verified response.
type reply struct {
	resp      *server.QueryResponse
	bodyBytes int
	done      time.Time // when the whole body had been read
}

// do sends operation op and verifies the answer. buf is the caller's
// reusable read buffer. Any status but 200 is an error: a refusal counts
// as a failed operation.
func (c *loadClient) do(op int, buf *bytes.Buffer) (reply, error) {
	resp, err := c.http.Post(c.url, "application/json", bytes.NewReader(c.bodies[op]))
	if err != nil {
		return reply{}, err
	}
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	done := time.Now()
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("%s: status %d: %s", c.ops[op].Name, resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
	}
	qr, err := c.oracle.verifyResponse(c.ops[op].Query, buf.Bytes())
	if err != nil {
		return reply{}, fmt.Errorf("%s: %w", c.ops[op].Name, err)
	}
	return reply{resp: qr, bodyBytes: buf.Len(), done: done}, nil
}

// loadResult is what one load phase measured.
type loadResult struct {
	mu        sync.Mutex
	latencies           // from due time (closed loop: due when sent)
	late      durations // how long after its due time each request was sent
	doneAt    durations // when each answer was complete, from the phase's start
	replies   []loadReply
	failed    []error
	wall      time.Duration
	backlog   int // open loop: requests due but not answered at window end
}

// loadReply keeps what the per-layer metrics need of one response.
type loadReply struct {
	roundTrip time.Duration
	cached    bool
	elapsed   time.Duration // stats.elapsed_ns
	matches   int
	bodyBytes int
}

// perSecond is the phase's throughput: the median, over its whole
// quarter-second slices, of the answers completed in a slice. A stall
// during a few slices does not move it.
func (r *loadResult) perSecond() float64 {
	const slice = 250 * time.Millisecond
	counts := make([]float64, int(r.wall/slice))
	for _, at := range r.doneAt {
		if i := int(at / slice); i < len(counts) {
			counts[i]++
		}
	}
	if len(counts) == 0 {
		return ratio(float64(len(r.all)), r.wall.Seconds())
	}
	return medianOf(counts) / slice.Seconds()
}

// record files one request of a phase that started at begin: due and
// sent at the given times, answered by rp or failed with err.
func (r *loadResult) record(v variant, begin, due, sent time.Time, rp reply, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed = append(r.failed, err)
		return
	}
	r.add(v, rp.done.Sub(due))
	r.late = append(r.late, sent.Sub(due))
	r.doneAt = append(r.doneAt, rp.done.Sub(begin))
	r.replies = append(r.replies, loadReply{
		roundTrip: rp.done.Sub(sent), cached: rp.resp.Cached, elapsed: rp.resp.Stats.Elapsed,
		matches: rp.resp.Count, bodyBytes: rp.bodyBytes,
	})
}

// closedLoop has each connection send its next request as soon as the
// previous one is answered, for d. stream holds operation indexes.
func (c *loadClient) closedLoop(stream []int, d time.Duration) *loadResult {
	res := &loadResult{}
	var next atomic.Int64
	begin := time.Now()
	deadline := begin.Add(d)
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				op := stream[i]
				sent := time.Now()
				rp, err := c.do(op, &buf)
				res.record(c.ops[op], begin, sent, sent, rp, err)
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(begin)
	return res
}

// openLoop sends stream at a fixed rate: request i is due at i/rate
// after the start, whatever happened to the requests before it. A
// connection that is free sleeps until the next request is due; when
// none is free the request waits, and its latency — timed from its due
// time — includes that wait. The window is len(stream)/rate long; the
// call returns when every request has been answered.
func (c *loadClient) openLoop(stream []int, rate float64) *loadResult {
	res := &loadResult{}
	var next, answered atomic.Int64
	begin := time.Now()
	window := time.Duration(float64(len(stream)) / rate * float64(time.Second))
	var wg sync.WaitGroup
	for w := 0; w < connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(stream) {
					return
				}
				due := begin.Add(time.Duration(float64(i) / rate * float64(time.Second)))
				sleepUntil(due)
				op := stream[i]
				sent := time.Now()
				rp, err := c.do(op, &buf)
				res.record(c.ops[op], begin, due, sent, rp, err)
				if err == nil && rp.done.Sub(begin) <= window {
					answered.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(begin)
	res.backlog = len(stream) - len(res.failed) - int(answered.Load())
	return res
}

// sleepUntil blocks the calling thread in nanosleep(2) until t. With
// every P idle, time.Sleep wakes through the runtime's netpoller, whose
// timeout has millisecond granularity — later than the spacing of the
// higher rates.
func sleepUntil(t time.Time) {
	if wait := time.Until(t); wait > 0 {
		ts := syscall.NsecToTimespec(wait.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up only sends early within the lateness we report
	}
}

// servedStore is a store behind an in-process blasd on a loopback port.
type servedStore struct {
	srv  *server.Server
	http *httptest.Server
}

func serveStore(st *blas.Store) *servedStore {
	srv := server.New(st, server.Config{})
	return &servedStore{srv: srv, http: httptest.NewServer(srv)}
}

func (s *servedStore) close() {
	//blas:ignore closecheck httptest.Server.Close returns nothing
	s.http.Close()
}

// runServe is serve_open: closed-loop capacity with two connections,
// then the four open-loop windows, all on one Zipf(1.1) request stream
// over the population, so the caches carry over as they would in a
// running daemon.
func (e *env) runServe() error {
	var served *servedStore
	var client *loadClient
	st, teardown, err := e.setUp(func(st *blas.Store) (func(), error) {
		served = serveStore(st)
		c, err := newLoadClient(served.http.URL, e.ops, e.oracle)
		if err != nil {
			served.close()
			return nil, err
		}
		client = c
		// Warm-up: the mix once through HTTP, the population's head.
		warm := make([]int, len(mixAuctionV1()))
		for i := range warm {
			warm[i] = i
		}
		r := client.closedLoop(warm, time.Minute)
		e.account(r)
		return func() { client.close(); served.close() }, nil
	})
	if err != nil {
		return err
	}
	defer st.Close()
	defer teardown()

	phase := func(share float64) time.Duration { return time.Duration(share * float64(e.timed())) }

	// Closed loop: what two callers that wait for their replies get. The
	// bounded metrics are all read here. The open-loop latencies below
	// are what independent users would see, but not steady enough to
	// bound in this sandbox (see README.md): at low rates they are mostly
	// the wake-up latency of idle threads, at higher rates queueing
	// multiplies every disturbance of the host.
	alloc0, m0 := heapAllocBytes(), st.Metrics()
	closed := client.closedLoop(zipfStream(e.rnd, len(e.ops), 1<<17), phase(serveShares[0]))
	alloc1, m1 := heapAllocBytes(), st.Metrics()
	e.account(closed)
	n := len(closed.all)
	e.res.set("q_per_s", closed.perSecond(), "1/s", n)
	closed.latencies.report(e.res)
	e.res.set("alloc_kb_per_q", ratio(float64(alloc1-alloc0)/1024, float64(n)), "KiB", n)
	e.res.set("page_reads_per_q", ratio(float64(m1.PageReads-m0.PageReads), float64(n)), "count", n)
	e.res.info("page_misses_per_q", ratio(float64(m1.PageMisses-m0.PageMisses), float64(n)), "count", n)

	// Open loop: independent users at four fixed rates, timed from due.
	maxOK := 0.0
	for i, rate := range serveRates {
		count := max(int(rate*phase(serveShares[i+1]).Seconds()), 1)
		r := client.openLoop(zipfStream(e.rnd, len(e.ops), count), rate)
		e.account(r)
		name := fmt.Sprintf("r%d", i+1)
		p95, n := ms(r.all.percentile(95)), len(r.all)
		e.res.info(name+"_rate_per_s", rate, "1/s", n)
		e.res.info(name+"_lat_p50_ms", ms(r.all.percentile(50)), "ms", n)
		e.res.info(name+"_lat_p95_ms", p95, "ms", n)
		e.res.info(name+"_lat_p99_ms", ms(r.all.percentile(99)), "ms", n)
		e.res.info(name+"_late_p95_ms", ms(r.late.percentile(95)), "ms", n)
		e.res.info(name+"_backlog", float64(r.backlog), "count", n)
		if p95 <= serveP95LimitMs && len(r.failed) == 0 && r.backlog <= 2*connections {
			maxOK = rate
		}
	}
	e.res.info("max_rate_ok_per_s", maxOK, "1/s", len(serveRates))
	sm := served.srv.Metrics()
	e.res.info("result_cache_hit_ratio", ratio(float64(sm.ResultCache.Hits), float64(sm.ResultCache.Hits+sm.ResultCache.Misses)), "ratio", int(sm.ResultCache.Hits+sm.ResultCache.Misses))
	return nil
}

// account adds a load phase's operations to the run's totals.
func (e *env) account(r *loadResult) {
	e.res.Attempted += len(r.all) + len(r.failed)
	for _, err := range r.failed {
		e.res.fail(err)
	}
}

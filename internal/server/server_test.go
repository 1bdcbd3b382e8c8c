// Server contract tests: correctness of the HTTP query path against
// direct Store.Query, cache hit/miss/invalidation behaviour, admission
// control (429, budget clamping, timeouts), graceful drain, and the
// stale-plan regression around store swaps. The concurrency tests mirror
// the root TestConcurrency* family and are meant to run under -race.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	blas "repro"
)

const testDoc = `<catalog>
  <book id="b1"><author>Knuth</author><title>TAOCP</title><price>199</price></book>
  <book id="b2"><author>Date</author><title>Databases</title><price>89</price></book>
  <book id="b3"><author>Knuth</author><title>Concrete Math</title><price>120</price></book>
  <journal id="j1"><title>SIGMOD Record</title></journal>
</catalog>`

func buildStore(t testing.TB, doc string) *blas.Store {
	t.Helper()
	st, err := blas.BuildFromString(doc, blas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func newTestServer(t testing.TB, st *blas.Store, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(st, cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// postQuery sends a QueryRequest and decodes the response, returning the
// HTTP status and either the success or the error payload.
func postQuery(t testing.TB, url string, req QueryRequest) (int, *QueryResponse, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return postRaw(t, url, body)
}

func postRaw(t testing.TB, url string, body []byte) (int, *QueryResponse, string) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		json.Unmarshal(data, &e) //nolint:errcheck // error body shape asserted by callers
		return resp.StatusCode, nil, e.Error
	}
	var qr QueryResponse
	if err := json.Unmarshal(data, &qr); err != nil {
		t.Fatalf("bad response body %q: %v", data, err)
	}
	return resp.StatusCode, &qr, ""
}

func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, data, err)
	}
	return resp.StatusCode
}

func deleteCache(t testing.TB, url, scope string) map[string]int {
	t.Helper()
	u := url + "/cache"
	if scope != "" {
		u += "?scope=" + scope
	}
	req, err := http.NewRequest(http.MethodDelete, u, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE /cache?scope=%s: status %d", scope, resp.StatusCode)
	}
	out := map[string]int{}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestServerQueryMatchesDirect checks the fundamental serving contract
// on a small document: every engine × translator × parallelism combo
// returns exactly what direct Store.Query returns, cold and warm.
func TestServerQueryMatchesDirect(t *testing.T) {
	st := buildStore(t, testDoc)
	_, ts := newTestServer(t, st, Config{})
	queries := []string{
		"/catalog/book/title",
		`/catalog/book[author="Knuth"]/title`,
		"//title",
		"/catalog/book/@id",
		`//book[price="89"]//author`,
	}
	for _, query := range queries {
		for _, engine := range []string{"relational", "twig"} {
			for _, par := range []int{1, 4} {
				want, err := st.Query(query, blas.QueryOptions{Engine: blas.Engine(engine), Parallelism: par})
				if err != nil {
					t.Fatal(err)
				}
				// no_result_cache so every combo actually executes.
				status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{
					Query: query, Engine: engine, Parallelism: par, NoResultCache: true,
				})
				if status != http.StatusOK {
					t.Fatalf("%s [%s P=%d]: status %d: %s", query, engine, par, status, errMsg)
				}
				if qr.Count != len(want.Matches) {
					t.Fatalf("%s [%s P=%d]: count %d, direct %d", query, engine, par, qr.Count, len(want.Matches))
				}
				if !reflect.DeepEqual(qr.Matches, want.Matches) && len(want.Matches) > 0 {
					t.Errorf("%s [%s P=%d]: matches differ from direct query", query, engine, par)
				}
				if qr.Parallelism < 1 {
					t.Errorf("%s: granted parallelism %d < 1", query, qr.Parallelism)
				}
			}
		}
	}
}

// TestServerPlanCacheCounters asserts the plan-cache hit/miss protocol:
// first request misses and pays planning, repeats hit and pay none, and
// the /metrics counters agree.
func TestServerPlanCacheCounters(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{})
	const query = "/catalog/book/title"

	status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{Query: query, NoResultCache: true})
	if status != http.StatusOK {
		t.Fatalf("cold: status %d: %s", status, errMsg)
	}
	if qr.PlanCached {
		t.Fatal("cold query reported plan_cached")
	}
	if qr.PlanNs <= 0 {
		t.Fatal("cold query paid no planning time")
	}

	planNsAfterCold := srv.Metrics().PlanNsTotal
	for i := 0; i < 3; i++ {
		// Whitespace variant must normalize onto the same cache entry.
		status, qr, errMsg = postQuery(t, ts.URL, QueryRequest{Query: " /catalog/book/title ", NoResultCache: true})
		if status != http.StatusOK {
			t.Fatalf("warm %d: status %d: %s", i, status, errMsg)
		}
		if !qr.PlanCached {
			t.Fatalf("warm %d: plan_cached false", i)
		}
		if qr.PlanNs != 0 {
			t.Fatalf("warm %d: paid %dns planning", i, qr.PlanNs)
		}
		if qr.Stats.PlanElapsed != 0 {
			t.Fatalf("warm %d: stats.PlanElapsed = %v, want 0 (plan was cached)", i, qr.Stats.PlanElapsed)
		}
	}
	m := srv.Metrics()
	if m.PlanNsTotal != planNsAfterCold {
		t.Errorf("warm queries grew plan_ns_total: %d -> %d", planNsAfterCold, m.PlanNsTotal)
	}
	if m.PlanCache.Misses != 1 || m.PlanCache.Hits != 3 {
		t.Errorf("plan cache hits/misses = %d/%d, want 3/1", m.PlanCache.Hits, m.PlanCache.Misses)
	}
	if m.PlanCache.Entries != 1 {
		t.Errorf("plan cache entries = %d, want 1", m.PlanCache.Entries)
	}
}

// TestServerResultCacheInvalidation observes the result cache end to
// end: miss, hit, explicit DELETE /cache, miss again.
func TestServerResultCacheInvalidation(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{})
	const query = `/catalog/book[author="Knuth"]/title`

	status, first, errMsg := postQuery(t, ts.URL, QueryRequest{Query: query})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, errMsg)
	}
	if first.Cached {
		t.Fatal("first request reported cached")
	}
	_, second, _ := postQuery(t, ts.URL, QueryRequest{Query: query})
	if !second.Cached {
		t.Fatal("second request not served from result cache")
	}
	if !reflect.DeepEqual(first.Matches, second.Matches) {
		t.Fatal("cached matches differ from original")
	}

	dropped := deleteCache(t, ts.URL, "")
	if dropped["invalidated_results"] != 1 {
		t.Fatalf("DELETE /cache invalidated %d results, want 1", dropped["invalidated_results"])
	}
	_, third, _ := postQuery(t, ts.URL, QueryRequest{Query: query})
	if third.Cached {
		t.Fatal("request after invalidation still served from cache")
	}
	m := srv.Metrics()
	if m.ResultCache.Invalidations != 1 {
		t.Errorf("result cache invalidations = %d, want 1", m.ResultCache.Invalidations)
	}
	if m.ResultCache.Hits != 1 || m.ResultCache.Misses != 2 {
		t.Errorf("result cache hits/misses = %d/%d, want 1/2", m.ResultCache.Hits, m.ResultCache.Misses)
	}
	// Traced requests must bypass the cache entirely.
	_, traced, _ := postQuery(t, ts.URL, QueryRequest{Query: query, Trace: true})
	if traced.Cached {
		t.Fatal("traced request served from result cache")
	}
	if traced.Stats.Phases == nil {
		t.Fatal("traced request returned no phase breakdown")
	}
}

// TestServerResultCacheBounds fills a tiny result cache past its entry
// limit and checks LRU eviction keeps it bounded.
func TestServerResultCacheBounds(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{ResultCacheEntries: 2})
	queries := []string{"/catalog/book/title", "/catalog/book/author", "/catalog/book/price", "//journal/title"}
	for _, q := range queries {
		if status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: q}); status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", q, status, errMsg)
		}
	}
	m := srv.Metrics()
	if m.ResultCache.Entries > 2 {
		t.Errorf("result cache holds %d entries, limit 2", m.ResultCache.Entries)
	}
	if m.ResultCache.Evictions != 2 {
		t.Errorf("evictions = %d, want 2", m.ResultCache.Evictions)
	}
	// The least-recently-used entry is gone; the newest is resident.
	_, qr, _ := postQuery(t, ts.URL, QueryRequest{Query: "//journal/title"})
	if !qr.Cached {
		t.Error("most recent entry was evicted")
	}
	_, qr, _ = postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title"})
	if qr.Cached {
		t.Error("oldest entry survived past the limit")
	}
}

// TestQueryWireMatchesQueryResponse pins the spliced success body to the
// exported response shape: wireHead ++ matches ++ wireTail are
// QueryResponse's fields, in order, under its tags, and — for a response
// whose strings need every kind of JSON escaping — the body is byte for
// byte what marshalling QueryResponse the way the server used to gives.
func TestQueryWireMatchesQueryResponse(t *testing.T) {
	var wire []reflect.StructField
	for _, part := range []any{wireHead{}, struct {
		Matches []blas.Match `json:"matches"`
	}{}, wireTail{}} {
		pt := reflect.TypeOf(part)
		for i := 0; i < pt.NumField(); i++ {
			wire = append(wire, pt.Field(i))
		}
	}
	qt := reflect.TypeOf(QueryResponse{})
	if len(wire) != qt.NumField() {
		t.Fatalf("the wire parts have %d fields, QueryResponse %d", len(wire), qt.NumField())
	}
	for i, w := range wire {
		if q := qt.Field(i); w.Name != q.Name || w.Tag != q.Tag || w.Type != q.Type {
			t.Errorf("field %d: wire has %s %v `%s`, QueryResponse %s %v `%s`", i, w.Name, w.Type, w.Tag, q.Name, q.Type, q.Tag)
		}
	}

	stats := blas.ExecStats{Translator: blas.TranslatorPushUp, Engine: blas.EngineTwig, Elapsed: 1234, ExecElapsed: 1234, VisitedElements: 7, Joins: 2, Note: "a <note> & more"}
	for _, matches := range [][]blas.Match{
		nil,
		{},
		{{Start: 1, End: 9, Level: 2, Tag: "title", Value: "Tom & Jerry <i>\"quoted\"</i> \u2028 caf\u00e9 \xff\n", Path: "/catalog/book/title"}, {Start: 11, End: 12, Level: 3, Tag: "@id", Path: "/catalog/book/@id"}},
	} {
		enc, err := encodeResult(&blas.Result{Matches: matches, Stats: stats})
		if err != nil {
			t.Fatal(err)
		}
		asArray := matches
		if asArray == nil {
			asArray = []blas.Match{}
		}
		for _, cached := range []bool{false, true} {
			const query = `/q[a="<&>"]`
			prefix, raw, suffix, err := queryBody(query, enc, wireTail{Cached: cached, PlanCached: true, PlanNs: 5, Parallelism: 2})
			if err != nil {
				t.Fatal(err)
			}
			got := slices.Concat(prefix, raw, suffix)
			var want bytes.Buffer
			if err := json.NewEncoder(&want).Encode(QueryResponse{Query: query, Count: len(matches), Matches: asArray, Stats: stats, Cached: cached, PlanCached: true, PlanNs: 5, Parallelism: 2}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%d matches, cached=%v: wire body\n%s\nQueryResponse body\n%s", len(matches), cached, got, want.Bytes())
			}
		}
	}
}

// TestServerResultCacheChargesEncodedBytes: an entry is charged its
// encoded matches, a hit serves the stored bytes unchanged, and a result
// whose encoding exceeds the byte limit is served but never cached.
func TestServerResultCacheChargesEncodedBytes(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{})
	fetch := func(url, query string) (body []byte, matches json.RawMessage, cached bool) {
		t.Helper()
		reqBody, _ := json.Marshal(QueryRequest{Query: query})
		resp, err := http.Post(url+"/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, err %v: %s", query, resp.StatusCode, err, body)
		}
		var parts struct {
			Matches json.RawMessage `json:"matches"`
			Cached  bool            `json:"cached"`
		}
		if err := json.Unmarshal(body, &parts); err != nil {
			t.Fatal(err)
		}
		return body, parts.Matches, parts.Cached
	}
	_, first, cached := fetch(ts.URL, "/catalog/book/title")
	if cached {
		t.Fatal("first request was served from the cache")
	}
	if got, want := srv.Metrics().ResultCache.Bytes, int64(len(first))+256; got != want {
		t.Errorf("cache charges %d bytes for a %d-byte matches array, want %d", got, len(first), want)
	}
	_, second, cached := fetch(ts.URL, "/catalog/book/title")
	if !cached || !bytes.Equal(first, second) {
		t.Errorf("hit: cached=%v, matches array differs from the executed response: %s vs %s", cached, second, first)
	}

	_, tiny := newTestServer(t, st, Config{ResultCacheBytes: int64(len(first)) + 255})
	fetch(tiny.URL, "/catalog/book/title")
	if _, _, cached := fetch(tiny.URL, "/catalog/book/title"); cached {
		t.Error("a result larger than the byte limit was cached")
	}
}

// TestServerSaturation429 fills every admission slot with gated queries
// and checks the next request is rejected with 429 + Retry-After —
// never queued, never collapsed — and that slots are reusable after.
func TestServerSaturation429(t *testing.T) {
	st := buildStore(t, testDoc)
	gate := make(chan struct{})
	started := make(chan struct{}, 16)
	srv := New(st, Config{MaxInFlight: 2, QueryTimeout: -1})
	srv.execGate = func() {
		started <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct queries so neither is served from the result cache.
			status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: fmt.Sprintf("/catalog/book[%s]/title", []string{"author", "price"}[i])})
			if status != http.StatusOK {
				t.Errorf("in-flight query %d: status %d: %s", i, status, errMsg)
			}
		}(i)
	}
	<-started
	<-started

	body, _ := json.Marshal(QueryRequest{Query: "/catalog/journal/title"})
	resp, err := http.Post(ts.URL+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server returned %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	close(gate)
	wg.Wait()
	if got := srv.Metrics().Rejected429; got != 1 {
		t.Errorf("rejected_429 = %d, want 1", got)
	}
	// Slots drained: the same query now executes.
	srv.execGate = nil
	if status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/journal/title"}); status != http.StatusOK {
		t.Fatalf("post-saturation query: status %d: %s", status, errMsg)
	}
	if got := srv.Metrics().InFlight; got != 0 {
		t.Errorf("in_flight = %d after quiesce, want 0", got)
	}
}

// TestServerGracefulDrain starts a query, begins draining, and checks
// the in-flight query completes while new ones are rejected with 503.
func TestServerGracefulDrain(t *testing.T) {
	st := buildStore(t, testDoc)
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	srv := New(st, Config{})
	srv.execGate = func() {
		started <- struct{}{}
		<-gate
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type result struct {
		status int
		qr     *QueryResponse
	}
	inflight := make(chan result, 1)
	go func() {
		status, qr, _ := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title"})
		inflight <- result{status, qr}
	}()
	<-started

	srv.BeginDrain()
	status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/author"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d (%s), want 503", status, errMsg)
	}
	var health map[string]any
	if got := getJSON(t, ts.URL+"/healthz", &health); got != http.StatusServiceUnavailable {
		t.Fatalf("healthz during drain: status %d, want 503", got)
	}

	close(gate)
	r := <-inflight
	if r.status != http.StatusOK {
		t.Fatalf("in-flight query after drain began: status %d, want 200", r.status)
	}
	if r.qr.Count == 0 {
		t.Fatal("in-flight query returned no matches")
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if got := srv.Metrics().RejectedDraining; got != 1 {
		t.Errorf("rejected_draining = %d, want 1", got)
	}
}

// TestServerQueryTimeout gates execution past a tiny QueryTimeout and
// checks the request is abandoned with 504 while the execution still
// completes and releases its admission slot.
func TestServerQueryTimeout(t *testing.T) {
	st := buildStore(t, testDoc)
	gate := make(chan struct{})
	srv := New(st, Config{QueryTimeout: 20 * time.Millisecond})
	srv.execGate = func() { <-gate }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, _ := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title"})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", status)
	}
	close(gate)
	// The abandoned execution finishes and frees its slot.
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned query never released its slot")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.Metrics().Timeouts; got != 1 {
		t.Errorf("timeouts = %d, want 1", got)
	}
}

// TestServerParallelismBudget checks one request cannot claim more
// workers than the global budget holds, and that the grant is reported.
func TestServerParallelismBudget(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{ParallelismBudget: 2})
	status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title", Parallelism: 64, NoResultCache: true})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, errMsg)
	}
	if qr.Parallelism != 2 {
		t.Errorf("granted %d workers from a budget of 2", qr.Parallelism)
	}
	m := srv.Metrics()
	if m.Clamped != 1 {
		t.Errorf("clamped = %d, want 1", m.Clamped)
	}
	if m.BudgetAvailable != 2 {
		t.Errorf("budget_available = %d after quiesce, want 2", m.BudgetAvailable)
	}
}

// TestServerTwigGrantsOneToken: a twig query runs one goroutine, so it
// is granted one parallelism token whatever it asks for, and that is not
// a clamp; a relational query keeps its grant.
func TestServerTwigGrantsOneToken(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{ParallelismBudget: 8})
	for _, c := range []struct {
		engine string
		want   int
	}{{"twig", 1}, {"relational", 4}} {
		status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title", Engine: c.engine, Parallelism: 4, NoResultCache: true})
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.engine, status, errMsg)
		}
		if qr.Parallelism != c.want {
			t.Errorf("%s: granted %d workers, want %d", c.engine, qr.Parallelism, c.want)
		}
	}
	m := srv.Metrics()
	if m.Clamped != 0 {
		t.Errorf("clamped = %d, want 0", m.Clamped)
	}
	if m.BudgetAvailable != 8 {
		t.Errorf("budget_available = %d after quiesce, want 8", m.BudgetAvailable)
	}
}

// TestServerStalePlanAfterSwap is the regression test for the
// generation-keyed plan cache: after the served store is swapped for one
// with a different labeling scheme, queries must be re-planned against
// the new store — a stale plan would select the old generation's label
// ranges and return garbage.
func TestServerStalePlanAfterSwap(t *testing.T) {
	// Same element paths, different tag universes: the P-label scheme of
	// docB assigns different label ranges to /catalog/book/title, so a
	// plan prepared on docA is wrong on docB's store.
	docA := `<catalog><book><title>A1</title></book><book><title>A2</title></book></catalog>`
	docB := `<catalog><zzz/><book><title>B1</title></book><book><title>B2</title></book><book><title>B3</title></book></catalog>`
	stA := buildStore(t, docA)
	stB := buildStore(t, docB)
	srv, ts := newTestServer(t, stA, Config{})
	const query = "/catalog/book/title"

	_, cold, _ := postQuery(t, ts.URL, QueryRequest{Query: query})
	if cold.Count != 2 {
		t.Fatalf("generation A: %d matches, want 2", cold.Count)
	}
	if old := srv.SwapStore(stB); old != stA {
		t.Fatal("SwapStore returned the wrong store")
	}

	want, err := stB.Query(query, blas.QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{Query: query})
	if status != http.StatusOK {
		t.Fatalf("after swap: status %d: %s", status, errMsg)
	}
	if qr.Cached || qr.PlanCached {
		t.Fatalf("after swap: served stale cache state (cached=%v plan_cached=%v)", qr.Cached, qr.PlanCached)
	}
	if qr.Count != 3 || !reflect.DeepEqual(qr.Matches, want.Matches) {
		t.Fatalf("after swap: %d matches, want %d identical to direct query", qr.Count, len(want.Matches))
	}
	m := srv.Metrics()
	if m.StoreGeneration != stB.Generation() {
		t.Errorf("metrics generation %d, want %d", m.StoreGeneration, stB.Generation())
	}
	if m.PlanCache.Invalidations == 0 {
		t.Error("swap purged no plan cache entries")
	}
	// The old store closes cleanly (no queries still reference it).
	if err := stA.Close(); err != nil {
		t.Fatalf("closing swapped-out store: %v", err)
	}
}

// TestServerStoreClosed maps ErrClosed to 503 rather than 500.
func TestServerStoreClosed(t *testing.T) {
	st := buildStore(t, testDoc)
	_, ts := newTestServer(t, st, Config{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title"})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("closed store: status %d (%s), want 503", status, errMsg)
	}
}

// TestServerBadRequests exercises the 4xx surface.
func TestServerBadRequests(t *testing.T) {
	st := buildStore(t, testDoc)
	_, ts := newTestServer(t, st, Config{})
	cases := []struct {
		name string
		body string
		want int
	}{
		{"malformed json", `{"query":`, http.StatusBadRequest},
		{"unknown field", `{"query":"/a","bogus":1}`, http.StatusBadRequest},
		{"removed batch_size field", `{"query":"/site","batch_size":64}`, http.StatusBadRequest},
		{"empty body", ``, http.StatusBadRequest},
		{"missing query", `{}`, http.StatusBadRequest},
		{"bad xpath", `{"query":"///[["}`, http.StatusBadRequest},
		{"negative parallelism", `{"query":"/catalog","parallelism":-1}`, http.StatusBadRequest},
		{"bad engine", `{"query":"/catalog","engine":"quantum"}`, http.StatusBadRequest},
		{"bad translator", `{"query":"/catalog","translator":"quantum"}`, http.StatusBadRequest},
		{"deep nesting", `{"query":"/a` + strings.Repeat("[b", 1000) + strings.Repeat("]", 1000) + `"}`, http.StatusBadRequest},
		{"huge query", `{"query":"` + strings.Repeat("/a", maxQueryBytes) + `"}`, http.StatusBadRequest},
		{"huge body", `{"query":"` + strings.Repeat("a", maxBodyBytes+16) + `"}`, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		status, _, errMsg := postRaw(t, ts.URL, []byte(tc.body))
		if status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, errMsg, tc.want)
		}
		if status != http.StatusOK && errMsg == "" && tc.body != `` {
			t.Errorf("%s: error response without message", tc.name)
		}
	}
	// Wrong methods 405.
	resp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", resp.StatusCode)
	}
	// Unknown cache scope.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/cache?scope=bogus", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("DELETE /cache?scope=bogus: status %d, want 400", resp.StatusCode)
	}
}

// TestServerMetricsEndpoints checks /metrics and /debug/vars serve the
// expvar-compatible two-key payload and agree with the store.
func TestServerMetricsEndpoints(t *testing.T) {
	st := buildStore(t, testDoc)
	srv, ts := newTestServer(t, st, Config{})
	if status, _, errMsg := postQuery(t, ts.URL, QueryRequest{Query: "/catalog/book/title"}); status != http.StatusOK {
		t.Fatalf("query: %d: %s", status, errMsg)
	}
	for _, path := range []string{"/metrics", "/debug/vars"} {
		var vars struct {
			Blas  blas.StoreMetrics `json:"blas"`
			Blasd Metrics           `json:"blasd"`
		}
		if status := getJSON(t, ts.URL+path, &vars); status != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, status)
		}
		if vars.Blas.Queries != 1 {
			t.Errorf("%s: store queries = %d, want 1", path, vars.Blas.Queries)
		}
		if vars.Blasd.Admitted != 1 {
			t.Errorf("%s: admitted = %d, want 1", path, vars.Blasd.Admitted)
		}
		if vars.Blasd.StoreGeneration != st.Generation() {
			t.Errorf("%s: generation mismatch", path)
		}
	}
	// The Metrics type satisfies the expvar.Var contract.
	var roundTrip Metrics
	if err := json.Unmarshal([]byte(srv.Metrics().String()), &roundTrip); err != nil {
		t.Fatalf("Metrics.String is not JSON: %v", err)
	}
}

// TestServerConcurrencyStress races concurrent clients against cache
// eviction, DELETE /cache, store swaps and Store.Close of the swapped-out
// store — the serving-tier analogue of the root TestConcurrency* family.
// Run under -race. Every 200 must carry the correct result set; 429/503
// are legitimate under saturation and swap; nothing else may appear.
func TestServerConcurrencyStress(t *testing.T) {
	queries := []string{
		"/catalog/book/title",
		`/catalog/book[author="Knuth"]/title`,
		"//title",
		"/catalog/book/@id",
		"/catalog/book/price",
	}
	stA := buildStore(t, testDoc)
	want := map[string]int{}
	for _, q := range queries {
		res, err := stA.Query(q, blas.QueryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[q] = len(res.Matches)
	}

	srv, ts := newTestServer(t, stA, Config{MaxInFlight: 4, ResultCacheEntries: 2, PlanCacheEntries: 2})
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Client goroutines: mixed engines and parallelism.
	var got429, got503 atomic.Uint64
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			engines := []string{"relational", "twig"}
			for i := 0; !stop.Load(); i++ {
				q := queries[(c+i)%len(queries)]
				status, qr, errMsg := postQuery(t, ts.URL, QueryRequest{
					Query: q, Engine: engines[i%2], Parallelism: i % 3,
				})
				switch status {
				case http.StatusOK:
					if qr.Count != want[q] {
						t.Errorf("%s: %d matches, want %d", q, qr.Count, want[q])
						return
					}
				case http.StatusTooManyRequests:
					got429.Add(1)
				case http.StatusServiceUnavailable:
					got503.Add(1)
				default:
					t.Errorf("%s: unexpected status %d: %s", q, status, errMsg)
					return
				}
			}
		}(c)
	}
	// Invalidator: hammers DELETE /cache.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			deleteCache(t, ts.URL, "all")
		}
	}()
	// Swapper: replaces the store with an identical document (same
	// results, new generation) and closes the old one mid-traffic.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 5 && !stop.Load(); i++ {
			next, err := blas.BuildFromString(testDoc, blas.Options{})
			if err != nil {
				t.Error(err)
				return
			}
			old := srv.SwapStore(next)
			if err := old.Close(); err != nil {
				t.Errorf("closing swapped-out store: %v", err)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := srv.Store().Close(); err != nil {
		t.Fatal(err)
	}
	m := srv.Metrics()
	if m.InFlight != 0 {
		t.Errorf("in_flight = %d after quiesce, want 0", m.InFlight)
	}
	t.Logf("stress: admitted=%d 429=%d 503=%d plan{h=%d m=%d} result{h=%d m=%d ev=%d}",
		m.Admitted, got429.Load(), got503.Load(),
		m.PlanCache.Hits, m.PlanCache.Misses,
		m.ResultCache.Hits, m.ResultCache.Misses, m.ResultCache.Evictions)
}

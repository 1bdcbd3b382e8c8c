// Concurrency contract tests: a *Store must serve any number of
// simultaneous Query calls, each with per-query-correct ExecStats. The
// seed version reset store-global counters at the start of every query
// (blas.go called ResetCounters, then Snapshot), so two in-flight
// queries corrupted each other's statistics; these tests pin the fix and
// are meant to run under -race.
package blas

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/datagen"
	"repro/internal/pager"
)

// concurrencyDoc builds a document large enough that scans overlap in
// time but small enough for the race detector.
func concurrencyDoc() string {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b,
			`<entry id="%d"><protein><name>p%d</name><class><superfamily>sf%d</superfamily></class></protein>`+
				`<reference><refinfo><author>a%d</author><year>%d</year><title>t%d</title></refinfo></reference></entry>`,
			i, i, i%7, i%13, 1990+i%20, i)
	}
	b.WriteString("</db>")
	return b.String()
}

// concurrencyWorkload mixes suffix paths, branching predicates and
// //-axes so the plans cover equality selections, range selections and
// multi-fragment D-joins.
var concurrencyWorkload = []string{
	"/db/entry/protein/name",
	"//superfamily",
	`/db/entry[protein/class/superfamily="sf3"]/reference/refinfo/title`,
	`//entry[reference//year="1995"]//name`,
	`/db/entry/reference/refinfo[author="a5"]/title`,
}

// TestConcurrentQueriesMatchSequential runs N goroutines of mixed
// translators and engines against one open store and requires every
// result to equal the sequential answer, with self-consistent per-query
// statistics.
func TestConcurrentQueriesMatchSequential(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	translators := []Translator{TranslatorSplit, TranslatorPushUp, TranslatorUnfold}
	engines := []Engine{EngineRelational, EngineTwig}

	type combo struct {
		query string
		tr    Translator
		eng   Engine
	}
	var combos []combo
	want := map[combo][]Match{}
	for _, q := range concurrencyWorkload {
		for _, tr := range translators {
			for _, eng := range engines {
				c := combo{q, tr, eng}
				res, err := st.Query(q, QueryOptions{Translator: tr, Engine: eng})
				if err != nil {
					t.Fatalf("sequential %s [%s/%s]: %v", q, tr, eng, err)
				}
				if len(res.Matches) == 0 {
					t.Fatalf("sequential %s [%s/%s]: empty result would make the stress vacuous", q, tr, eng)
				}
				combos = append(combos, c)
				want[c] = res.Matches
			}
		}
	}

	const goroutines = 8
	const iterations = 12
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				c := combos[(g+i)%len(combos)]
				res, err := st.Query(c.query, QueryOptions{Translator: c.tr, Engine: c.eng})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %v", g, c.query, c.tr, c.eng, err)
					return
				}
				if !reflect.DeepEqual(res.Matches, want[c]) {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %d matches != sequential %d",
						g, c.query, c.tr, c.eng, len(res.Matches), len(want[c]))
					return
				}
				if err := checkStatsConsistent(res); err != nil {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %v", g, c.query, c.tr, c.eng, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// checkStatsConsistent verifies the per-query invariants that the old
// store-global counters violated under concurrency.
func checkStatsConsistent(res *Result) error {
	s := res.Stats
	if s.Elapsed != s.PlanElapsed+s.ExecElapsed {
		return fmt.Errorf("elapsed %v != plan %v + exec %v", s.Elapsed, s.PlanElapsed, s.ExecElapsed)
	}
	if len(res.Matches) > 0 && s.VisitedElements == 0 {
		return fmt.Errorf("non-empty result with zero visited elements")
	}
	if s.VisitedElements < uint64(len(res.Matches)) {
		return fmt.Errorf("visited %d < matches %d: stats bled across queries", s.VisitedElements, len(res.Matches))
	}
	if s.PageReads == 0 {
		return fmt.Errorf("query read records but no pages")
	}
	if s.PageMisses > s.PageReads {
		return fmt.Errorf("misses %d > reads %d", s.PageMisses, s.PageReads)
	}
	return nil
}

// TestConcurrentStatsDoNotBleed pins the per-query attribution directly:
// a tiny query racing a large one must report the tiny query's visit
// count, not a mixture. Under the seed's shared counters the small
// query's stats routinely included the big scan's work.
func TestConcurrentStatsDoNotBleed(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The exact visited count of the small suffix-path query, measured
	// alone: split answers it with matches only (§4.2).
	small := "/db/entry/protein/name"
	alone, err := st.Query(small, QueryOptions{Translator: TranslatorSplit})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Deferred after st.Close, so it runs first: the background goroutine
	// is stopped and drained before the store goes away, even when an
	// assertion below fails the test.
	defer func() {
		close(stop)
		wg.Wait()
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			// A baseline scan visiting far more elements than small's answer.
			if _, err := st.Query("//name", QueryOptions{Translator: TranslatorDLabel}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 20; i++ {
		res, err := st.Query(small, QueryOptions{Translator: TranslatorSplit})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.VisitedElements != alone.Stats.VisitedElements {
			t.Fatalf("iteration %d: visited %d != solo measurement %d (cross-query bleed)",
				i, res.Stats.VisitedElements, alone.Stats.VisitedElements)
		}
	}
}

// TestConcurrencyTwigParallelSweep stresses the twig engine with sweeps
// from many goroutines, racing a DropCaches churner so the streams
// continually miss and refetch. Every result must be byte-identical to
// a lone twig query's answer, with VisitedElements and PageReads
// exactly equal: neither other queries nor the state of the pool change
// a twig query's work.
func TestConcurrencyTwigParallelSweep(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type want struct {
		matches []Match
		visited uint64
		reads   uint64
	}
	wants := map[string]want{}
	for _, q := range concurrencyWorkload {
		res, err := st.Query(q, QueryOptions{Engine: EngineTwig})
		if err != nil {
			t.Fatalf("sequential twig %s: %v", q, err)
		}
		if len(res.Matches) == 0 {
			t.Fatalf("sequential twig %s: empty result would make the stress vacuous", q)
		}
		wants[q] = want{matches: res.Matches, visited: res.Stats.VisitedElements, reads: res.Stats.PageReads}
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	defer churn.Wait()
	defer close(stop)
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := st.DropCaches(); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	const goroutines = 6
	const iterations = 10
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				q := concurrencyWorkload[(g+i)%len(concurrencyWorkload)]
				res, err := st.Query(q, QueryOptions{Engine: EngineTwig})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d %s: %v", g, q, err)
					return
				}
				w := wants[q]
				if !reflect.DeepEqual(res.Matches, w.matches) {
					errs <- fmt.Errorf("goroutine %d %s: %d matches != sequential %d",
						g, q, len(res.Matches), len(w.matches))
					return
				}
				if res.Stats.VisitedElements != w.visited || res.Stats.PageReads != w.reads {
					errs <- fmt.Errorf("goroutine %d %s: visited %d, page reads %d; alone: %d, %d",
						g, q, res.Stats.VisitedElements, res.Stats.PageReads, w.visited, w.reads)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// --- buffer pool invariants (PR 4's sharded, pinning pool) ---
//
// The pool tests below target the pager directly through its public API
// and are meant to run under -race (the CI runs
// `go test -race -run Concurrency -count=2`): they pin frames from many
// goroutines while eviction, overflow and DropCache churn the shards.

// poolFixture allocates n pages whose first byte encodes their id.
func poolFixture(t *testing.T, poolPages, n int) (*pager.File, []pager.PageID) {
	t.Helper()
	f := pager.OpenMem(poolPages)
	ids := make([]pager.PageID, n)
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error { p[0] = byte(i + 1); return nil }); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return f, ids
}

// TestConcurrencyPoolEvictionUnderPin holds pins on a fixed page while
// other goroutines sweep a working set far larger than the pool,
// evicting on almost every access. The pinned frame must never be
// reused: its bytes stay valid for the whole callback.
func TestConcurrencyPoolEvictionUnderPin(t *testing.T) {
	const pages = 64
	f, ids := poolFixture(t, 4, pages)
	defer f.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Pinners: long callbacks on one page each.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := ids[g]
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := f.View(id, func(p []byte) error {
					for i := 0; i < 100; i++ {
						if p[0] != byte(g+1) {
							return fmt.Errorf("pinned page %d corrupted: byte = %d, want %d", id, p[0], g+1)
						}
					}
					return nil
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Sweepers: force constant eviction across every shard.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, id := range ids {
					err := f.View(id, func(p []byte) error {
						if p[0] != byte(i+1) {
							return fmt.Errorf("page %d: byte = %d, want %d", id, p[0], i+1)
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	// Let the sweepers finish, then release the pinners.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }()
	defer close(stop)

	// Meanwhile verify the file-wide invariant reads >= misses holds on
	// the atomically-maintained stats.
	for i := 0; i < 100; i++ {
		st := f.Stats()
		if st.Misses > st.Reads {
			t.Fatalf("stats snapshot: misses %d > reads %d", st.Misses, st.Reads)
		}
	}
}

// TestConcurrencyPoolAllPinnedOverflow pins more pages at once than the
// pool holds. Eviction finds no victim, so shards must grow transiently
// — every pin succeeds, with correct data, rather than erroring or
// recycling a pinned buffer.
func TestConcurrencyPoolAllPinnedOverflow(t *testing.T) {
	const pages = 12
	f, ids := poolFixture(t, 2, pages)
	defer f.Close()

	var wg sync.WaitGroup
	hold := make(chan struct{})
	pinned := make(chan error, pages)
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id pager.PageID) {
			defer wg.Done()
			err := f.View(id, func(p []byte) error {
				if p[0] != byte(i+1) {
					return fmt.Errorf("page %d: byte = %d, want %d", id, p[0], i+1)
				}
				pinned <- nil
				<-hold // keep the frame pinned until all pages are in
				if p[0] != byte(i+1) {
					return fmt.Errorf("page %d corrupted while pinned: byte = %d", id, p[0])
				}
				return nil
			})
			if err != nil {
				pinned <- err
			}
		}(i, id)
	}
	// All 12 pages of a 2-frame pool must get pinned simultaneously.
	for i := 0; i < pages; i++ {
		if err := <-pinned; err != nil {
			t.Error(err)
		}
	}
	close(hold)
	wg.Wait()
}

// TestConcurrencyPoolDropCacheVsView races DropCache against readers:
// views must keep seeing consistent page bytes while the pool is drained
// under them, and the pool must refill correctly afterwards.
func TestConcurrencyPoolDropCacheVsView(t *testing.T) {
	const pages = 32
	f, ids := poolFixture(t, 8, pages)
	defer f.Close()

	var wg sync.WaitGroup
	var failed atomic.Bool
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				for i, id := range ids {
					err := f.View(id, func(p []byte) error {
						if p[0] != byte(i+1) {
							return fmt.Errorf("page %d: byte = %d, want %d", id, p[0], i+1)
						}
						return nil
					})
					if err != nil {
						t.Error(err)
						failed.Store(true)
						return
					}
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200 && !failed.Load(); i++ {
			if err := f.DropCache(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}

// --- Close vs in-flight queries (PR 4 regression) ---

// TestConcurrencyCloseWaitsForQueries pins the active-query refcount:
// Close must block until running queries finish (their results stay
// complete and correct), and queries arriving after Close has begun get
// ErrClosed instead of crashing on closed files.
func TestConcurrencyCloseWaitsForQueries(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	const query = "/db/entry/protein/name"
	want, err := st.Query(query, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	var closedSeen atomic.Int64
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for {
				res, err := st.Query(query, QueryOptions{})
				if errors.Is(err, ErrClosed) {
					closedSeen.Add(1)
					return
				}
				if err != nil {
					t.Errorf("query racing Close: %v", err)
					return
				}
				// A query that was admitted must complete untruncated even
				// while Close is waiting.
				if !reflect.DeepEqual(res.Matches, want.Matches) {
					t.Errorf("query racing Close returned %d matches, want %d", len(res.Matches), len(want.Matches))
					return
				}
			}
		}()
	}
	close(start)
	// Several goroutines race Close; every call must block until the
	// store is actually closed and report the same (nil) result.
	var closers sync.WaitGroup
	for c := 0; c < 3; c++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			if err := st.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	closers.Wait()
	wg.Wait()
	if got := closedSeen.Load(); got != goroutines {
		t.Fatalf("%d goroutines saw ErrClosed, want %d", got, goroutines)
	}
	// After Close everything fails fast with ErrClosed…
	if _, err := st.Query(query, QueryOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: err = %v, want ErrClosed", err)
	}
	if err := st.DropCaches(); !errors.Is(err, ErrClosed) {
		t.Fatalf("DropCaches after Close: err = %v, want ErrClosed", err)
	}
	if _, err := st.Explain(query, QueryOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Explain after Close: err = %v, want ErrClosed", err)
	}
	// …and Close itself is idempotent.
	if err := st.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// --- store metrics registry (PR 6) ---

// TestConcurrencyMetricsRegistry hammers one store from many goroutines
// (successful queries, failing queries, mixed engines) while a reader
// snapshots Metrics throughout. Every snapshot must be internally
// consistent even mid-update — Queries equals the latency histogram's
// bucket sum, counters never move backwards, InFlight stays in range —
// and once the store is quiescent the totals must be exact.
func TestConcurrencyMetricsRegistry(t *testing.T) {
	st, err := BuildFromString(concurrencyDoc(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	const goroutines = 8
	const iterations = 25
	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	var snapErr error
	go func() {
		defer snapWG.Done()
		var prev StoreMetrics
		for {
			m := st.Metrics()
			var bucketSum uint64
			for _, b := range m.Latency.Buckets {
				bucketSum += b.Count
			}
			switch {
			case m.Queries != m.Latency.Count || m.Queries != bucketSum:
				snapErr = fmt.Errorf("queries %d != latency count %d / bucket sum %d", m.Queries, m.Latency.Count, bucketSum)
			case m.Queries < prev.Queries, m.QueryErrors < prev.QueryErrors,
				m.VisitedElements < prev.VisitedElements, m.PageReads < prev.PageReads:
				snapErr = fmt.Errorf("counter went backwards: %+v after %+v", m, prev)
			case m.InFlight < 0 || m.InFlight > goroutines:
				snapErr = fmt.Errorf("in-flight %d out of [0, %d]", m.InFlight, goroutines)
			}
			if snapErr != nil {
				return
			}
			prev = m
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	engines := []Engine{EngineRelational, EngineTwig}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				if i%5 == 4 {
					// A parse error must count as a query error, not a query.
					if _, err := st.Query("][not xpath", QueryOptions{}); err == nil {
						t.Error("malformed query unexpectedly succeeded")
					}
					continue
				}
				q := concurrencyWorkload[(g+i)%len(concurrencyWorkload)]
				if _, err := st.Query(q, QueryOptions{Engine: engines[i%2]}); err != nil {
					t.Errorf("query %s: %v", q, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	m := st.Metrics()
	wantOK := uint64(goroutines * iterations * 4 / 5)
	wantErr := uint64(goroutines * iterations / 5)
	if m.Queries != wantOK || m.Latency.Count != wantOK {
		t.Errorf("queries = %d (latency count %d), want %d", m.Queries, m.Latency.Count, wantOK)
	}
	if m.QueryErrors != wantErr {
		t.Errorf("query errors = %d, want %d", m.QueryErrors, wantErr)
	}
	if m.InFlight != 0 {
		t.Errorf("in-flight = %d after quiesce, want 0", m.InFlight)
	}
	var perEngine uint64
	for name, h := range m.ByEngine {
		if h.Count == 0 {
			t.Errorf("engine %q recorded zero queries", name)
		}
		perEngine += h.Count
	}
	if perEngine != m.Queries {
		t.Errorf("per-engine sum %d != queries %d", perEngine, m.Queries)
	}
	var perTranslator uint64
	for _, c := range m.ByTranslator {
		perTranslator += c
	}
	if perTranslator != m.Queries {
		t.Errorf("per-translator sum %d != queries %d", perTranslator, m.Queries)
	}
	if m.VisitedElements == 0 || m.PageReads == 0 {
		t.Errorf("cumulative stats empty: visited %d, page reads %d", m.VisitedElements, m.PageReads)
	}
}

// TestConcurrencyPooledBatches races queries whose streams share the
// process-wide pool of batch buffers. On auction factor 1 a stream spans
// many heap pages, so each buffer is refilled within a query and goes
// back to the pool for the next stream; a buffer handed to two streams,
// or one still written after its release, would corrupt another query's
// records. Every result must equal the sequential answer, and so must
// its page reads. The load is as many queries as a server admits
// at once by default (4·GOMAXPROCS, at least 8); the test logs what a
// query allocates under it, which includes any buffer the pool could
// not hand back.
func TestConcurrencyPooledBatches(t *testing.T) {
	var doc strings.Builder
	if err := GenerateDataset(&doc, datagen.NameAuction, DatasetOptions{Seed: 1, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type combo struct {
		query string
		tr    Translator
		eng   Engine
	}
	var combos []combo
	want := map[combo]*Result{}
	for _, q := range []string{
		bench.Fig10Queries["QA1"], bench.Fig10Queries["QA2"], bench.Fig10Queries["QA3"],
		bench.Fig15Queries["Q1"], bench.Fig15Queries["Q4"], bench.Fig15Queries["Q6"],
	} {
		for _, tr := range []Translator{TranslatorAuto, TranslatorDLabel} {
			for _, eng := range []Engine{EngineRelational, EngineTwig} {
				c := combo{q, tr, eng}
				res, err := st.Query(q, QueryOptions{Translator: tr, Engine: eng})
				if err != nil {
					t.Fatalf("sequential %s [%s/%s]: %v", q, tr, eng, err)
				}
				if len(res.Matches) == 0 {
					t.Fatalf("sequential %s [%s/%s]: empty result would make the stress vacuous", q, tr, eng)
				}
				combos = append(combos, c)
				want[c] = res
			}
		}
	}

	goroutines := max(8, 4*runtime.GOMAXPROCS(0))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range combos {
				c := combos[(g+i)%len(combos)]
				res, err := st.Query(c.query, QueryOptions{Translator: c.tr, Engine: c.eng})
				if err != nil {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %v", g, c.query, c.tr, c.eng, err)
					return
				}
				w := want[c]
				if !reflect.DeepEqual(res.Matches, w.Matches) {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %d matches differ from the sequential %d",
						g, c.query, c.tr, c.eng, len(res.Matches), len(w.Matches))
					return
				}
				if res.Stats.PageReads != w.Stats.PageReads {
					errs <- fmt.Errorf("goroutine %d: %s [%s/%s]: %d page reads, sequential %d",
						g, c.query, c.tr, c.eng, res.Stats.PageReads, w.Stats.PageReads)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	t.Logf("%d goroutines: %.1f KiB allocated per query", goroutines,
		float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(goroutines*len(combos)))
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

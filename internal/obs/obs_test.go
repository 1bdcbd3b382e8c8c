package obs

import (
	"sync"
	"testing"
	"time"
)

// TestTraceOffZeroAlloc is the allocation guard for the tracing-off fast
// path: every Trace method a hot path may call must cost nothing on a
// nil trace — no clock read, no allocation. This is what lets the
// engines call Begin/End unconditionally.
func TestTraceOffZeroAlloc(t *testing.T) {
	var tr *Trace
	if a := testing.AllocsPerRun(200, func() {
		b := tr.Begin()
		tr.End(PhaseScan, b)
		b = tr.Begin()
		tr.End(PhaseOrder, b) // planner path: same guarantee as the engine phases
		b = tr.Begin()
		tr.End(PhaseDecode, b) // batch-layer decode spans
		tr.Add(PhaseDecode, time.Millisecond)
		tr.AddDecoded(128)
		tr.AddPartition(42)
	}); a != 0 {
		t.Errorf("nil-trace span recording allocates %.1f times per call, want 0", a)
	}
}

// BenchmarkTraceOff tracks the cost of the nil-trace path itself
// (ReportAllocs is the benchmark-level guard).
func BenchmarkTraceOff(b *testing.B) {
	var tr *Trace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		begin := tr.Begin()
		tr.End(PhaseSweep, begin)
	}
}

func TestTraceSpans(t *testing.T) {
	tr := NewTrace()
	begin := tr.Begin()
	if begin.IsZero() {
		t.Fatal("active trace returned the zero begin time")
	}
	time.Sleep(time.Millisecond)
	tr.End(PhaseParse, begin)
	tr.Add(PhaseJoin, 5*time.Millisecond)
	tr.AddPartition(10)
	tr.AddPartition(20)
	tr.AddDecoded(100)
	tr.AddDecoded(28)
	tr.AddDecoded(0)  // ignored
	tr.AddDecoded(-5) // ignored

	s := tr.Snapshot()
	if s.DecodedRecords != 128 {
		t.Errorf("decoded records = %d, want 128", s.DecodedRecords)
	}
	if s.Span(PhaseParse) <= 0 {
		t.Errorf("parse span = %v, want > 0", s.Span(PhaseParse))
	}
	if s.Span(PhaseJoin) != 5*time.Millisecond {
		t.Errorf("join span = %v, want 5ms", s.Span(PhaseJoin))
	}
	if s.Span(PhaseSweep) != 0 {
		t.Errorf("sweep span = %v, want 0", s.Span(PhaseSweep))
	}
	if len(s.Partitions) != 2 || s.Partitions[0] != 10 || s.Partitions[1] != 20 {
		t.Errorf("partitions = %v, want [10 20]", s.Partitions)
	}
	// Ending a span with the nil trace's zero begin must not record.
	tr.End(PhaseSweep, time.Time{})
	if got := tr.Snapshot().Span(PhaseSweep); got != 0 {
		t.Errorf("zero-begin End recorded %v", got)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	const workers = 8
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Add(PhaseDecode, time.Microsecond)
				tr.AddPartition(1)
			}
		}()
	}
	wg.Wait()
	s := tr.Snapshot()
	if want := workers * 100 * time.Microsecond; s.Span(PhaseDecode) != want {
		t.Errorf("decode = %v, want %v", s.Span(PhaseDecode), want)
	}
	if len(s.Partitions) != workers*100 {
		t.Errorf("partitions = %d, want %d", len(s.Partitions), workers*100)
	}
}

func TestPhaseNames(t *testing.T) {
	seen := map[string]bool{}
	for p := Phase(0); p < NumPhases; p++ {
		name := p.String()
		if name == "" || name == "unknown" || seen[name] {
			t.Errorf("phase %d has bad or duplicate name %q", p, name)
		}
		seen[name] = true
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	samples := []time.Duration{
		0, time.Nanosecond, time.Microsecond, // bucket 0
		2 * time.Microsecond,   // bucket 1
		100 * time.Millisecond, // interior
		2 * time.Hour,          // overflow bucket
		-5 * time.Millisecond,  // clamped to 0
		512 * time.Microsecond, // exact bound: inclusive upper
		513 * time.Microsecond, // just past it
	}
	for _, d := range samples {
		h.Observe(d)
	}
	s := h.Snapshot()
	if s.Count != uint64(len(samples)) {
		t.Fatalf("count = %d, want %d", s.Count, len(samples))
	}
	var sum uint64
	for _, c := range s.Buckets {
		sum += c
	}
	if sum != s.Count {
		t.Fatalf("bucket sum %d != count %d", sum, s.Count)
	}
	if s.Buckets[0] != 4 { // 0, 1ns, 1µs, clamped negative
		t.Errorf("bucket 0 = %d, want 4", s.Buckets[0])
	}
	if s.Buckets[NumBuckets-1] != 1 { // 2h overflow
		t.Errorf("overflow bucket = %d, want 1", s.Buckets[NumBuckets-1])
	}
	if b9, b10 := bucketOf(512*time.Microsecond), bucketOf(513*time.Microsecond); b9+1 != b10 {
		t.Errorf("inclusive upper bound violated: bucketOf(512µs)=%d, bucketOf(513µs)=%d", b9, b10)
	}
	if got := s.Quantile(0.5); got == 0 && s.Count > 0 {
		t.Errorf("median = 0 with %d samples", s.Count)
	}
}

func TestHistogramBounds(t *testing.T) {
	if BucketBound(0) != time.Microsecond {
		t.Errorf("BucketBound(0) = %v", BucketBound(0))
	}
	if BucketBound(NumBuckets-1) != 0 {
		t.Errorf("last bucket bound = %v, want 0 (unbounded)", BucketBound(NumBuckets-1))
	}
	for i := 0; i < NumBuckets-1; i++ {
		if bucketOf(BucketBound(i)) != i {
			t.Errorf("bucketOf(BucketBound(%d)) = %d", i, bucketOf(BucketBound(i)))
		}
	}
}

func TestRegistryCounts(t *testing.T) {
	r := NewRegistry()
	r.QueryBegin()
	r.QueryBegin()
	if got := r.Snapshot().InFlight; got != 2 {
		t.Fatalf("in-flight = %d, want 2", got)
	}
	r.QueryDone("relational", "pushup", time.Millisecond, 100, 20, 5)
	r.QueryDone("twig", "pushup", 2*time.Millisecond, 50, 10, 2)
	r.EarlyTermination()
	r.QueryBegin()
	r.QueryFailed()

	s := r.Snapshot()
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", s.InFlight)
	}
	if s.Queries != 2 || s.Latency.Count != 2 {
		t.Errorf("queries = %d, latency count = %d, want 2/2", s.Queries, s.Latency.Count)
	}
	if s.Errors != 1 {
		t.Errorf("errors = %d, want 1", s.Errors)
	}
	if s.Visited != 150 || s.PageReads != 30 || s.PageMisses != 7 {
		t.Errorf("cumulative stats = %d/%d/%d, want 150/30/7", s.Visited, s.PageReads, s.PageMisses)
	}
	if s.EarlyTerms != 1 {
		t.Errorf("early terminations = %d, want 1", s.EarlyTerms)
	}
	if s.ByEngine["relational"].Count != 1 || s.ByEngine["twig"].Count != 1 {
		t.Errorf("per-engine counts = %v", s.ByEngine)
	}
	if s.ByTranslator["pushup"] != 2 {
		t.Errorf("per-translator count = %v", s.ByTranslator)
	}
	var perEngine uint64
	for _, h := range s.ByEngine {
		perEngine += h.Count
	}
	if perEngine != s.Queries {
		t.Errorf("per-engine sum %d != queries %d", perEngine, s.Queries)
	}
}

// TestRegistryConcurrent drives the registry from many goroutines while
// snapshots race the updates. Every snapshot must be internally
// consistent (Queries == Latency.Count by construction, counters
// monotonic across successive snapshots); after the run the totals must
// be exact.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 200
	stop := make(chan struct{})
	var snapErr error
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		var prev RegistrySnapshot
		for {
			s := r.Snapshot()
			var sum uint64
			for _, c := range s.Latency.Buckets {
				sum += c
			}
			switch {
			case s.Queries != sum:
				snapErr = errSnapshot("queries != bucket sum")
			case s.Queries < prev.Queries, s.Errors < prev.Errors, s.Visited < prev.Visited:
				snapErr = errSnapshot("counter went backwards")
			case s.InFlight < 0 || s.InFlight > workers:
				snapErr = errSnapshot("in-flight out of range")
			}
			if snapErr != nil {
				return
			}
			prev = s
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			engines := []string{"relational", "twig"}
			for i := 0; i < perWorker; i++ {
				r.QueryBegin()
				if i%10 == 9 {
					r.QueryFailed()
					continue
				}
				r.QueryDone(engines[i%2], "pushup", time.Duration(i)*time.Microsecond, 3, 2, 1)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snapWG.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}

	s := r.Snapshot()
	wantOK := uint64(workers * perWorker * 9 / 10)
	wantErr := uint64(workers * perWorker / 10)
	if s.Queries != wantOK || s.Latency.Count != wantOK {
		t.Errorf("queries = %d (latency %d), want %d", s.Queries, s.Latency.Count, wantOK)
	}
	if s.Errors != wantErr {
		t.Errorf("errors = %d, want %d", s.Errors, wantErr)
	}
	if s.InFlight != 0 {
		t.Errorf("in-flight = %d, want 0", s.InFlight)
	}
	if s.Visited != wantOK*3 {
		t.Errorf("visited = %d, want %d", s.Visited, wantOK*3)
	}
}

type errSnapshot string

func (e errSnapshot) Error() string { return "inconsistent snapshot: " + string(e) }

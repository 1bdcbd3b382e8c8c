package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/uint128"
)

// ExecConfig carries the engine-independent execution knobs that
// blas.QueryOptions threads down into both query engines. The zero value
// selects the defaults.
type ExecConfig struct {
	// Parallelism bounds the worker goroutines one query may use — the
	// chunks of a partitioned D-join on the relational engine, the
	// partitions of the holistic sweep on the twig engine; both start
	// them through FanOut. 0 selects runtime.GOMAXPROCS(0); 1 runs the
	// query fully sequentially (no extra goroutines). Negative values
	// are rejected by Validate. The result set is identical at every
	// setting.
	Parallelism int
}

// Validate rejects malformed configurations. Both engines call it on
// entry so misuse fails identically everywhere.
func (c ExecConfig) Validate() error {
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be >= 0 (0 = GOMAXPROCS, 1 = sequential), got %d", c.Parallelism)
	}
	return nil
}

// BatchController returns nil. It exists only for benchmark/ and goes
// with ROADMAP item 1 (the benchmark harness).
func (c ExecConfig) BatchController() *relstore.BatchController { return nil }

// Workers resolves the effective worker count.
func (c ExecConfig) Workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// FanOut runs piece(0), ..., piece(n-1) concurrently, waits for all of
// them and returns the error of the lowest-indexed piece that failed.
// Piece 0 runs on the calling goroutine and every other piece on a
// goroutine of its own, so n pieces occupy n goroutines and n <= 1
// starts none. It is the only place the engines start goroutines:
// callers size n by ExecConfig.Workers, which is how a query stays
// within its Parallelism.
func FanOut(n int, piece func(i int) error) error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n - 1)
	for i := 1; i < n; i++ {
		go func() {
			defer wg.Done()
			errs[i] = piece(i)
		}()
	}
	errs[0] = piece(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Result holds a query's answer on either engine.
type Result struct {
	// Records are the return-node bindings, deduplicated, in document
	// order.
	Records []relstore.Record
	// EarlyTerminated reports that an empty intermediate (a planner
	// proof, an empty fragment scan or stream, or an empty join result)
	// let the engine skip remaining scan, sweep or join work.
	EarlyTerminated bool
}

// Starts returns the start positions of the result records.
func (r *Result) Starts() []uint32 {
	out := make([]uint32, len(r.Records))
	for i, rec := range r.Records {
		out[i] = rec.Start
	}
	return out
}

// FragmentStream prepares the document-order batched stream of one plan
// fragment's selection so it can be opened repeatedly over disjoint
// start ranges. Both engines read fragments through it: the relational
// engine drains one full-range stream per fragment, the twig engine's
// partitioned sweep opens one restricted stream per partition.
//
// Preparation resolves everything that must not be repeated per
// partition — in particular the distinct P-label runs of a range
// selection (a skip scan over the cluster index). Open then only
// descends the index once per run, and a record whose start falls in
// [lo, hi) is fetched by exactly one partition, which keeps the
// visited-elements statistic independent of how the stream is split.
type FragmentStream struct {
	st      *Store
	frag    *translate.Fragment
	plabels []uint128.Uint128 // resolved runs of a range selection
	// Filter holds the fragment's local predicates, which Open does not
	// apply and Collect does.
	Filter RecFilter
}

// PrepareFragmentStream resolves fragment f's access path against the
// store. The skip scan for range selections is accounted to ctx (index
// pages only — no records are fetched).
func (s *Store) PrepareFragmentStream(ctx *relstore.ExecContext, f *translate.Fragment) (*FragmentStream, error) {
	fs := &FragmentStream{st: s, frag: f, Filter: RecFilter{Value: f.Value, LevelEq: f.LevelEq, ExcludeTags: s.attrTagIDs(f)}}
	switch f.Access.Kind {
	case translate.AccessPLabelEq, translate.AccessPLabelSet, translate.AccessTag, translate.AccessAll:
		// No preparation needed.
	case translate.AccessPLabelRange:
		plabels, err := s.sp.DistinctPLabels(ctx, f.Access.Range.Lo, f.Access.Range.Hi)
		if err != nil {
			return nil, err
		}
		fs.plabels = plabels
	default:
		return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
	}
	return fs, nil
}

// KnownEmpty reports that the prepared stream can produce no records
// under any start restriction: a range selection whose skip scan
// resolved zero P-label runs. Engines use it to terminate early without
// opening (and sweeping) the plan's other streams.
func (fs *FragmentStream) KnownEmpty() bool {
	return fs.frag.Access.Kind == translate.AccessPLabelRange && len(fs.plabels) == 0
}

// Open returns the fragment's records whose start position lies in
// [lo, hi) — hi == 0 means unbounded — as a batched stream in document
// (start) order. The fragment-local predicates (fs.Filter) are NOT
// applied; the caller applies them to the decoded batches.
func (fs *FragmentStream) Open(ctx *relstore.ExecContext, lo, hi uint32) (relstore.BatchIter, error) {
	f := fs.frag
	switch f.Access.Kind {
	case translate.AccessPLabelEq:
		return fs.st.sp.ScanPLabelExactBatch(ctx, f.Access.Range.Lo, lo, hi), nil
	case translate.AccessPLabelRange:
		runs := make([]relstore.BatchIter, 0, len(fs.plabels))
		for _, p := range fs.plabels {
			runs = append(runs, fs.st.sp.ScanPLabelExactBatch(ctx, p, lo, hi))
		}
		if len(runs) == 0 {
			return emptyBatchIter{}, nil
		}
		return relstore.MergeBatchesByStart(runs)
	case translate.AccessPLabelSet:
		runs := make([]relstore.BatchIter, 0, len(f.Access.Labels))
		for _, l := range f.Access.Labels {
			runs = append(runs, fs.st.sp.ScanPLabelExactBatch(ctx, l, lo, hi))
		}
		if len(runs) == 0 {
			return emptyBatchIter{}, nil
		}
		return relstore.MergeBatchesByStart(runs)
	case translate.AccessTag:
		return fs.st.sd.ScanTagBatch(ctx, f.Access.TagID, lo, hi), nil
	case translate.AccessAll:
		return fs.st.sd.ScanStartRangeBatch(ctx, lo, hi), nil
	default:
		return nil, fmt.Errorf("core: unknown access kind %v", f.Access.Kind)
	}
}

// Collect drains the fragment's whole stream into a one-column binding
// arena, filtered by fs.Filter. Every batch decodes into buf, which the
// caller may reuse across streams: engines pass relstore.BatchSize
// records, since a smaller batch ends mid-page and that page is then
// requested once per batch. The survivors of each batch are copied into
// the chunked arena, which is never regrown.
func (fs *FragmentStream) Collect(ctx *relstore.ExecContext, buf []relstore.Record) (Tuples[relstore.Record], error) {
	recs := NewTuples[relstore.Record](1)
	bi, err := fs.Open(ctx, 0, 0)
	if err != nil {
		return recs, err
	}
	for {
		n, err := bi.NextBatch(buf)
		if err != nil || n == 0 {
			return recs, err
		}
		recs.Extend(fs.Filter.Apply(buf[:n]))
	}
}

// emptyBatchIter is the stream of a selection with no runs.
type emptyBatchIter struct{}

func (emptyBatchIter) NextBatch([]relstore.Record) (int, error) { return 0, nil }

// RecFilter applies a fragment's local predicates — value equality,
// exact level, attribute-tag exclusion for wildcards — to decoded
// record batches. Both engines filter through it so the predicate
// semantics cannot diverge.
type RecFilter struct {
	Value       *string
	LevelEq     uint16
	ExcludeTags map[uint32]bool
}

// Active reports whether the filter can drop any record.
func (f RecFilter) Active() bool {
	return f.Value != nil || f.LevelEq != 0 || f.ExcludeTags != nil
}

// Apply filters recs in place and returns the kept prefix.
func (f RecFilter) Apply(recs []relstore.Record) []relstore.Record {
	if !f.Active() {
		return recs
	}
	out := recs[:0]
	for _, rec := range recs {
		if f.Value != nil && rec.Data != *f.Value {
			continue
		}
		if f.LevelEq != 0 && rec.Level != f.LevelEq {
			continue
		}
		if f.ExcludeTags != nil && f.ExcludeTags[rec.TagID] {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// attrTagIDs returns the attribute tag ids a wildcard (AccessAll)
// fragment must exclude — XPath * matches elements only — or nil when
// the fragment needs no exclusion.
func (s *Store) attrTagIDs(f *translate.Fragment) map[uint32]bool {
	if f.Access.Kind != translate.AccessAll {
		return nil
	}
	m := map[uint32]bool{}
	for _, tag := range s.Scheme().Tags() {
		if len(tag) > 0 && tag[0] == '@' {
			if id, ok := s.TagID(tag); ok {
				m[id] = true
			}
		}
	}
	return m
}

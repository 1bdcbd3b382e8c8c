package core

import (
	"fmt"
	"runtime"

	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/uint128"
)

// ExecConfig carries the engine-independent execution knobs that
// blas.QueryOptions threads down into both query engines. The zero value
// selects the defaults.
type ExecConfig struct {
	// Parallelism bounds the worker pool one query may use — fragment
	// scans and partitioned D-joins on the relational engine, stream
	// prefetchers and partitioned sweeps on the twig engine. 0 selects
	// runtime.GOMAXPROCS(0); 1 runs the query fully sequentially (no
	// extra goroutines). Negative values are rejected by Validate. The
	// result set is identical at every setting.
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
}

// PrepareFragmentStream resolves fragment f's access path against the
// store. The skip scan for range selections is accounted to ctx (index
// pages only — no records are fetched).
func (s *Store) PrepareFragmentStream(ctx *relstore.ExecContext, f *translate.Fragment) (*FragmentStream, error) {
	fs := &FragmentStream{st: s, frag: f}
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
// (start) order. Fragment-local predicates (value, level, attribute
// exclusion) are NOT applied; they are engine policy and cheap to apply
// on the decoded batches.
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

// FragmentFilter builds fragment f's record filter.
func (s *Store) FragmentFilter(f *translate.Fragment) RecFilter {
	return RecFilter{Value: f.Value, LevelEq: f.LevelEq, ExcludeTags: s.AttrTagIDs(f)}
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

// AttrTagIDs returns the attribute tag ids a wildcard (AccessAll)
// fragment must exclude — XPath * matches elements only — or nil when
// the fragment needs no exclusion.
func (s *Store) AttrTagIDs(f *translate.Fragment) map[uint32]bool {
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

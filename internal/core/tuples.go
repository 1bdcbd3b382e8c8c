package core

import (
	"slices"

	"repro/internal/relstore"
)

// tupleChunkShift sizes the chunks of a growing Tuples arena: 1<<9
// tuples each, a few tens of KiB at the strides real plans reach.
const tupleChunkShift = 9

// Tuples is an arena of fixed-width record tuples, Stride records each.
// Both engines keep their join intermediates in one — the relational
// engine's D-join tuples, the twig engine's path solutions and merged
// assignments — so producing a tuple copies its records to the end of
// the current chunk instead of allocating a slice (or a map) of its own.
//
// The arena grows a chunk at a time and never moves a tuple once it is
// written: the first chunk doubles up to 1<<tupleChunkShift tuples,
// every later one is allocated at that size, so n tuples cost O(n/512)
// allocations, no re-copying, and at most one chunk of slack. Make one
// with NewTuples (to fill) or TuplesOf (to view existing records).
type Tuples struct {
	Stride int
	chunks [][]relstore.Record // every chunk but the last holds 1<<shift tuples
	shift  uint
	n      int
}

// NewTuples returns an empty arena of the given tuple width.
func NewTuples(stride int) Tuples { return Tuples{Stride: stride, shift: tupleChunkShift} }

// TuplesOf wraps a flat slice of len(recs)/stride tuples as a read-only
// arena without copying it — a scan's bindings are a one-column arena as
// they stand. Append must not be called on the result.
func TuplesOf(recs []relstore.Record, stride int) Tuples {
	// One chunk holds everything: no index reaches bit 62.
	return Tuples{Stride: stride, chunks: [][]relstore.Record{recs}, shift: 62, n: len(recs) / stride}
}

// Len returns the number of tuples.
func (t Tuples) Len() int { return t.n }

// At returns tuple i, aliasing the arena.
func (t Tuples) At(i int) []relstore.Record {
	off := (i & (1<<t.shift - 1)) * t.Stride
	return t.chunks[i>>t.shift][off : off+t.Stride : off+t.Stride]
}

// Append adds the tuple prefix ++ suffix; len(prefix)+len(suffix) must
// equal Stride.
//
//blas:hotpath
func (t *Tuples) Append(prefix, suffix []relstore.Record) {
	full := t.Stride << t.shift
	last := len(t.chunks) - 1
	if last < 0 || len(t.chunks[last]) == full {
		size := full
		if last < 0 {
			size = min(full, 16*t.Stride)
		}
		t.chunks = append(t.chunks, make([]relstore.Record, 0, size))
		last++
	} else if c := t.chunks[last]; len(c) == cap(c) {
		// Only the first chunk starts below full size.
		t.chunks[last] = slices.Grow(c, min(len(c), full-len(c)))
	}
	t.chunks[last] = append(append(t.chunks[last], prefix...), suffix...)
	t.n++
}

// AppendAll appends every tuple of u (same Stride), in order.
func (t *Tuples) AppendAll(u Tuples) {
	for i := 0; i < u.n; i++ {
		t.Append(u.At(i), nil)
	}
}

// Column copies column col of every tuple out of the arena.
func (t Tuples) Column(col int) []relstore.Record {
	out := make([]relstore.Record, t.n)
	for i := range out {
		out[i] = t.At(i)[col]
	}
	return out
}

// SortedBy returns the tuples ordered by the start position of column
// col (ties keep their order). Already-sorted input — the common case,
// a start-ordered scan — is returned as is; otherwise the tuples are
// copied into a new arena in sorted order.
func (t Tuples) SortedBy(col int) Tuples {
	order := startOrder(t.n, func(i int) uint32 { return t.At(i)[col].Start })
	if order == nil {
		return t
	}
	out := NewTuples(t.Stride)
	for _, k := range order {
		out.Append(t.At(int(uint32(k))), nil)
	}
	return out
}

// SortedByStart returns recs in document (start) order, ties keeping
// their order: recs itself when it is already sorted, a sorted copy
// otherwise.
func SortedByStart(recs []relstore.Record) []relstore.Record {
	order := startOrder(len(recs), func(i int) uint32 { return recs[i].Start })
	if order == nil {
		return recs
	}
	out := make([]relstore.Record, len(recs))
	for i, k := range order {
		out[i] = recs[uint32(k)]
	}
	return out
}

// startOrder returns the stable permutation that sorts n items by
// start(i), as packed start<<32|index keys in sorted order — so the sort
// compares plain integers instead of going through, and swapping, fat
// records. It returns nil when the items are already in order.
func startOrder(n int, start func(int) uint32) []uint64 {
	sorted := true
	for i := 1; i < n && sorted; i++ {
		sorted = start(i-1) <= start(i)
	}
	if sorted {
		return nil
	}
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(start(i))<<32 | uint64(i)
	}
	slices.Sort(keys)
	return keys
}

// DocOrder is the last step of both engines: the return-node bindings
// sorted into document order and deduplicated by start position (a
// start identifies a node). It reuses recs when they are already
// sorted; nil for an empty input.
func DocOrder(recs []relstore.Record) []relstore.Record {
	if len(recs) == 0 {
		return nil
	}
	recs = SortedByStart(recs)
	out := recs[:1]
	for _, r := range recs[1:] {
		if r.Start != out[len(out)-1].Start {
			out = append(out, r)
		}
	}
	return out
}

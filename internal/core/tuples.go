package core

import (
	"math/bits"
	"slices"

	"repro/internal/relstore"
)

// Chunk geometry of a Tuples arena, in tuples: the first geoChunks
// chunks hold firstChunk, 2*firstChunk, ... tuples, so a small arena
// stays small; every later chunk holds 1<<tupleChunkShift tuples (a few
// tens of KiB at the strides real plans reach).
const (
	firstChunk      = 16
	geoChunks       = 5
	geoTuples       = firstChunk<<geoChunks - firstChunk // tuples in the geometric chunks
	tupleChunkShift = 9
)

// chunkOf locates tuple i: chunk c, tuple k within it.
func chunkOf(i int) (c, k int) {
	if i >= geoTuples {
		i -= geoTuples
		return geoChunks + i>>tupleChunkShift, i & (1<<tupleChunkShift - 1)
	}
	// Chunk c < geoChunks holds tuples [firstChunk<<c - firstChunk,
	// firstChunk<<(c+1) - firstChunk).
	j := uint(i + firstChunk)
	c = bits.Len(j) - bits.Len(firstChunk)
	return c, int(j) - firstChunk<<c
}

// chunkTuples is the capacity of chunk c, in tuples.
func chunkTuples(c int) int {
	if c < geoChunks {
		return firstChunk << c
	}
	return 1 << tupleChunkShift
}

// Tuples is an arena of fixed-width tuples, Stride items each. It is the
// one intermediate-result container of both engines, in three roles:
//
//   - a fragment's scan bindings: Tuples[relstore.Record], Stride 1
//     (the relational engine's selections, the twig engine's
//     materialized root stream);
//   - a twig leaf's path solutions: Tuples[relstore.Record], Stride =
//     the leaf's path length;
//   - join rows: Tuples[int32] whose items index records held by the
//     arenas above — a relational D-join tuple holds one binding id per
//     joined fragment, a twig assignment one solution id per folded
//     leaf. Records are never copied into a join; the return column is
//     copied once, by DocOrder.
//
// Producing a tuple copies it to the end of the last chunk instead of
// allocating a slice (or a map entry) of its own. The arena grows a
// chunk at a time and never moves, regrows or copies a tuple once it is
// written: chunks double from 16 tuples up to 1<<tupleChunkShift and
// stay at that size, so n tuples cost O(log n + n/512) allocations and
// at most one chunk of slack.
type Tuples[T any] struct {
	Stride int
	chunks [][]T // chunk c has capacity chunkTuples(c)*Stride
	n      int
}

// NewTuples returns an empty arena of the given tuple width.
func NewTuples[T any](stride int) Tuples[T] { return Tuples[T]{Stride: stride} }

// Rows returns the one-column join rows 0..n-1: the ids of n bindings
// (or path solutions) as the initial join tuples.
func Rows(n int) Tuples[int32] {
	t := NewTuples[int32](1)
	var run [1 << tupleChunkShift]int32
	for lo := 0; lo < n; lo += len(run) {
		k := min(len(run), n-lo)
		for i := range k {
			run[i] = int32(lo + i)
		}
		t.Extend(run[:k])
	}
	return t
}

// Len returns the number of tuples.
func (t Tuples[T]) Len() int { return t.n }

// At returns tuple i, aliasing the arena.
func (t Tuples[T]) At(i int) []T {
	c, k := chunkOf(i)
	off := k * t.Stride
	return t.chunks[c][off : off+t.Stride : off+t.Stride]
}

// Get returns item col of tuple i, aliasing the arena.
func (t Tuples[T]) Get(i, col int) *T {
	c, k := chunkOf(i)
	return &t.chunks[c][k*t.Stride+col]
}

// Column copies item col of every tuple out of the arena.
func (t Tuples[T]) Column(col int) []T {
	out := make([]T, 0, t.n)
	for _, c := range t.chunks {
		for k := col; k < len(c); k += t.Stride {
			out = append(out, c[k])
		}
	}
	return out
}

// Run returns tuples i..j-1 as one flat slice aliasing the arena — or,
// when they span chunks, the longest prefix of them inside i's chunk.
func (t Tuples[T]) Run(i, j int) []T {
	c, k := chunkOf(i)
	chunk := t.chunks[c]
	end := min(k+j-i, len(chunk)/t.Stride)
	return chunk[k*t.Stride : end*t.Stride]
}

// last returns the chunk the next tuple goes to, allocating it when the
// current last chunk is full.
func (t *Tuples[T]) last() *[]T {
	c := len(t.chunks) - 1
	if c < 0 || len(t.chunks[c]) == cap(t.chunks[c]) {
		c++
		t.chunks = append(t.chunks, make([]T, 0, chunkTuples(c)*t.Stride))
	}
	return &t.chunks[c]
}

// Append adds the tuple prefix ++ suffix; len(prefix)+len(suffix) must
// equal Stride.
//
//blas:hotpath
func (t *Tuples[T]) Append(prefix, suffix []T) {
	c := t.last()
	*c = append(append(*c, prefix...), suffix...)
	t.n++
}

// Extend appends the len(flat)/Stride tuples laid out back to back in
// flat, chunk by chunk.
func (t *Tuples[T]) Extend(flat []T) {
	for len(flat) > 0 {
		c := t.last()
		k := min(len(flat), cap(*c)-len(*c))
		*c = append(*c, flat[:k]...)
		t.n += k / t.Stride
		flat = flat[k:]
	}
}

// AppendAll appends every tuple of u (same Stride), in order.
func (t *Tuples[T]) AppendAll(u Tuples[T]) {
	for _, c := range u.chunks {
		t.Extend(c)
	}
}

// SortedBy returns the stable permutation that orders n items by
// start(i), or nil when they are already in order (the common case: a
// start-ordered scan). It sorts packed start<<32|index keys, so the sort
// compares plain integers instead of calling back per comparison.
func SortedBy(n int, start func(int) uint32) []int32 {
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
	perm := make([]int32, n)
	for i, k := range keys {
		perm[i] = int32(uint32(k))
	}
	return perm
}

// DocOrder is the last step of both engines: the return-node bindings
// sorted into document order, deduplicated by start position (a start
// identifies a node; the first of a run is kept) and copied once, at
// exact size, into the result. The bindings are item col of the tuples
// of recs — all of them, in order, when ids is nil, else the tuples ids
// lists. nil when there are none.
func DocOrder(recs Tuples[relstore.Record], col int, ids []int32) []relstore.Record {
	n := len(ids)
	if ids == nil {
		n = recs.Len()
	}
	if n == 0 {
		return nil
	}
	at := func(k int) *relstore.Record {
		if ids != nil {
			k = int(ids[k])
		}
		return recs.Get(k, col)
	}
	sorted, distinct := true, 1
	for k, prev := 1, at(0).Start; k < n && sorted; k++ {
		s := at(k).Start
		sorted = prev <= s
		if s != prev {
			distinct, prev = distinct+1, s
		}
	}
	if sorted {
		out := make([]relstore.Record, 0, distinct)
		out = append(out, *at(0))
		for k := 1; k < n; k++ {
			if r := at(k); r.Start != out[len(out)-1].Start {
				out = append(out, *r)
			}
		}
		return out
	}
	// Packed start<<32|position keys sort as plain integers, stably.
	keys := make([]uint64, n)
	for k := range keys {
		keys[k] = uint64(at(k).Start)<<32 | uint64(k)
	}
	slices.Sort(keys)
	distinct = 1
	for k := 1; k < n; k++ {
		if keys[k]>>32 != keys[k-1]>>32 {
			distinct++
		}
	}
	out := make([]relstore.Record, 0, distinct)
	for k, key := range keys {
		if k == 0 || key>>32 != keys[k-1]>>32 {
			out = append(out, *at(int(uint32(key))))
		}
	}
	return out
}

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
// one intermediate-result container of both engines, in four roles:
//
//   - a fragment's scan bindings (Bindings, Stride 1): Tuples[Span] for
//     every fragment but the return one, whose bindings finalize reads
//     in full, as Tuples[relstore.Record];
//   - a twig leaf's path solutions: Tuples[Span], Stride = the leaf's
//     path length;
//   - the twig engine's return column: Tuples[relstore.Record], Stride
//     1, one return binding per solution of the leaf that owns the
//     return node, at the same solution ids;
//   - join rows: Tuples[int32] whose items index the arenas above — a
//     relational D-join tuple holds one binding id per joined fragment,
//     a twig assignment one solution id per folded leaf. Bindings are
//     never copied into a join, and DocOrder copies none either: the
//     return column is copied once, by finalize, out of its arena.
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

// Span is a binding's interval and level, 12 bytes: all that a D-join
// (§5.2) or a twig stack climb (§5.3) reads of a node.
type Span struct {
	Start, End uint32
	Level      uint16
}

// SpanOf returns the interval and level of r.
func SpanOf(r *relstore.Record) Span { return Span{Start: r.Start, End: r.End, Level: r.Level} }

// Bindings is one fragment's scan bindings in exactly one of two
// one-column arenas: Recs for the return fragment, whose records
// finalize reads, and Spans for every other fragment, whose joins read
// intervals only. Holding both would cost the return fragment a span
// per binding for nothing.
type Bindings struct {
	Spans Tuples[Span]
	Recs  Tuples[relstore.Record]
}

// NewBindings returns an empty binding arena: records for the return
// fragment (ret), spans for any other.
func NewBindings(ret bool) Bindings {
	if ret {
		return Bindings{Recs: NewTuples[relstore.Record](1)}
	}
	return Bindings{Spans: NewTuples[Span](1)}
}

// Len returns the number of bindings.
func (b *Bindings) Len() int { return b.Spans.Len() + b.Recs.Len() }

// SpanAt returns the interval and level of binding i, from whichever
// arena b has. It is how joins read bindings.
//
//blas:hotpath
func (b *Bindings) SpanAt(i int) Span {
	if b.Recs.Stride != 0 {
		return SpanOf(b.Recs.Get(i, 0))
	}
	return *b.Spans.Get(i, 0)
}

// Extend appends recs as bindings: whole to a record arena, as spans to
// a span arena.
func (b *Bindings) Extend(recs []relstore.Record) {
	if b.Recs.Stride != 0 {
		b.Recs.Extend(recs)
		return
	}
	var one [1]Span
	for i := range recs {
		one[0] = SpanOf(&recs[i])
		b.Spans.Append(one[:], nil)
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

// DocOrder is the last step of both engines: it puts the return-node
// bindings in document order, deduplicated by start position (a start
// identifies a node; the first of a run is kept), as a View over the
// arena that holds them. The bindings are the tuples of recs, a
// one-column return arena — all of them, in order, when ids is nil,
// else the tuples ids lists. No record is copied: a view that is
// already sorted and distinct, the common case, is recs and ids as
// given and allocates nothing; any other costs one id per binding.
func DocOrder(recs Tuples[relstore.Record], ids []int32) View {
	v := View{recs: recs, ids: ids}
	n := v.Len()
	if n == 0 {
		return View{}
	}
	sorted, distinct := true, true
	for k, prev := 1, v.At(0).Start; k < n && sorted; k++ {
		s := v.At(k).Start
		sorted, distinct, prev = prev <= s, distinct && prev != s, s
	}
	if sorted && distinct {
		return v
	}
	start := func(k int) uint32 { return v.At(k).Start }
	order := SortedBy(n, start) // a stable sort: the first of a run stays first
	if order == nil {
		order = make([]int32, n)
		for k := range order {
			order[k] = int32(k)
		}
	}
	kept := order[:1]
	for _, k := range order[1:] {
		if start(int(k)) != start(int(kept[len(kept)-1])) {
			kept = append(kept, k)
		}
	}
	if ids != nil {
		for i, k := range kept {
			kept[i] = ids[k]
		}
	}
	return View{recs: recs, ids: kept}
}

// View is a query's answer as both engines leave it: the return-node
// bindings, deduplicated, in document order, read in place from the
// return arena (the tuples of recs that ids lists, or every tuple when
// ids is nil). Finalize reads it once, into the result.
type View struct {
	recs Tuples[relstore.Record]
	ids  []int32
}

// Len returns the number of bindings in the view.
func (v *View) Len() int {
	if v.ids == nil {
		return v.recs.Len()
	}
	return len(v.ids)
}

// At returns binding k in document order, aliasing the arena.
func (v *View) At(k int) *relstore.Record {
	if v.ids != nil {
		k = int(v.ids[k])
	}
	c, i := chunkOf(k)
	return &v.recs.chunks[c][i] // the return arena has Stride 1
}

// Records copies the view out, at exact size; nil when it is empty.
func (v *View) Records() []relstore.Record {
	n := v.Len()
	if n == 0 {
		return nil
	}
	out := make([]relstore.Record, n)
	for k := range out {
		out[k] = *v.At(k)
	}
	return out
}

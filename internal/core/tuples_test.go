package core

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/relstore"
)

// tuple builds a recognizable stride-wide tuple: column c of tuple i
// carries Start = start+c and a value naming both.
func tuple(i, stride int, start uint32) []relstore.Record {
	t := make([]relstore.Record, stride)
	for c := range t {
		t[c] = relstore.Record{Start: start + uint32(c), End: uint32(i), Level: uint16(c), Data: string(rune('a' + c))}
	}
	return t
}

// TestTuplesAcrossChunks fills arenas past several chunk boundaries and
// checks that every access path — At, Get, Column, Extend,
// AppendAll — sees exactly the tuples that were appended, in order.
func TestTuplesAcrossChunks(t *testing.T) {
	const chunk = 1 << tupleChunkShift
	for _, stride := range []int{1, 3} {
		for _, n := range []int{0, 1, 15, 16, 17, 48, geoTuples - 1, geoTuples, geoTuples + 1, geoTuples + chunk, 3*chunk + 7} {
			var want [][]relstore.Record
			var flat []relstore.Record
			arena := NewTuples[relstore.Record](stride)
			for i := 0; i < n; i++ {
				tp := tuple(i, stride, uint32(10*i))
				want = append(want, tp)
				flat = append(flat, tp...)
				// Split the tuple at a varying point: prefix ++ suffix.
				arena.Append(tp[:i%(stride+1)], tp[i%(stride+1):])
			}
			if arena.Len() != n {
				t.Fatalf("stride %d n %d: Len = %d", stride, n, arena.Len())
			}
			for i, w := range want {
				if !slices.Equal(arena.At(i), w) {
					t.Fatalf("stride %d n %d: At(%d) = %v, want %v", stride, n, i, arena.At(i), w)
				}
			}
			for c := 0; c < stride; c++ {
				col := arena.Column(c)
				for i, w := range want {
					if col[i] != w[c] || *arena.Get(i, c) != w[c] {
						t.Fatalf("stride %d n %d: Column(%d)[%d] = %v, Get = %v, want %v", stride, n, c, i, col[i], *arena.Get(i, c), w[c])
					}
				}
			}
			// A tuple handed out by At must not be clobbered by appending
			// through it.
			if n > 0 {
				_ = append(arena.At(0), relstore.Record{Start: 999})
				if n > 1 && !slices.Equal(arena.At(1), want[1]) {
					t.Fatalf("stride %d n %d: append through At(0) overwrote tuple 1", stride, n)
				}
			}
			// Bulk extension in uneven pieces equals tuple-wise appends.
			bulk := NewTuples[relstore.Record](stride)
			for rest, k := flat, 1; len(rest) > 0; k = k*3 + 1 {
				m := min(len(rest), k*stride)
				bulk.Extend(rest[:m])
				rest = rest[m:]
			}
			// Concatenation: a partly filled arena followed by this one.
			joined := NewTuples[relstore.Record](stride)
			joined.Append(tuple(-1, stride, 5), nil)
			joined.AppendAll(arena)
			if bulk.Len() != n || joined.Len() != n+1 {
				t.Fatalf("stride %d n %d: Extend Len = %d, AppendAll Len = %d", stride, n, bulk.Len(), joined.Len())
			}
			for i, w := range want {
				if !slices.Equal(bulk.At(i), w) {
					t.Fatalf("stride %d n %d: after Extend At(%d) = %v, want %v", stride, n, i, bulk.At(i), w)
				}
				if !slices.Equal(joined.At(i+1), w) {
					t.Fatalf("stride %d n %d: after AppendAll At(%d) = %v, want %v", stride, n, i+1, joined.At(i+1), w)
				}
			}
		}
	}
}

// TestRowsAreIdentity: the initial join rows are the ids 0..n-1.
func TestRowsAreIdentity(t *testing.T) {
	for _, n := range []int{0, 1, 511, 512, 513, 1500} {
		rows := Rows(n)
		if rows.Len() != n || rows.Stride != 1 {
			t.Fatalf("Rows(%d): %d rows of stride %d", n, rows.Len(), rows.Stride)
		}
		for i := 0; i < n; i++ {
			if rows.At(i)[0] != int32(i) {
				t.Fatalf("Rows(%d): row %d = %d", n, i, rows.At(i)[0])
			}
		}
	}
}

// TestSortedByIsStableSort compares SortedBy and DocOrder with
// sort.SliceStable on shuffled input with duplicate starts, and checks
// that sorted input needs no permutation.
func TestSortedByIsStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	const n = 2000
	var recs []relstore.Record
	for i := 0; i < n; i++ {
		// Starts repeat; End tells twins apart.
		recs = append(recs, relstore.Record{Start: uint32(rnd.Intn(n / 4)), End: uint32(i)})
	}
	want := slices.Clone(recs)
	sort.SliceStable(want, func(a, b int) bool { return want[a].Start < want[b].Start })
	start := func(recs []relstore.Record) func(int) uint32 {
		return func(i int) uint32 { return recs[i].Start }
	}
	perm := SortedBy(n, start(recs))
	if len(perm) != n {
		t.Fatalf("SortedBy returned %d ids for %d shuffled records", len(perm), n)
	}
	for i, w := range want {
		if got := recs[perm[i]]; got != w {
			t.Fatalf("SortedBy: position %d = %v, want %v", i, got, w)
		}
	}
	if SortedBy(n, start(want)) != nil {
		t.Error("SortedBy permuted already sorted input")
	}

	// DocOrder: sorted, one record per start — the first of each run —
	// copied out at exact size.
	var dedup []relstore.Record
	for i, r := range want {
		if i == 0 || r.Start != want[i-1].Start {
			dedup = append(dedup, r)
		}
	}
	// The bindings listed directly and through ids (reversed, so the ids
	// carry the order).
	for _, in := range [][]relstore.Record{recs, want} {
		arena, reversed := NewTuples[relstore.Record](1), NewTuples[relstore.Record](1)
		ids := make([]int32, n)
		for i := range in {
			arena.Append(in[i:i+1], nil)
			reversed.Append(in[n-1-i:n-i], nil)
			ids[i] = int32(n - 1 - i)
		}
		for _, v := range []View{DocOrder(arena, nil), DocOrder(reversed, ids)} {
			got := v.Records()
			if v.Len() != len(dedup) || !slices.Equal(got, dedup) || cap(got) != len(dedup) {
				t.Fatalf("DocOrder viewed %d records, copied %d (cap %d), want %d", v.Len(), len(got), cap(got), len(dedup))
			}
		}
	}
	for _, v := range []View{DocOrder(NewTuples[relstore.Record](1), nil), DocOrder(NewTuples[relstore.Record](1), []int32{}), {}} {
		if v.Len() != 0 || v.Records() != nil {
			t.Error("DocOrder of nothing is not empty")
		}
	}
}

// TestDocOrderSortedDistinctZeroAlloc is the zero-copy guard of the
// engines' last step: a return column that is already in document order
// and distinct — every single-fragment plan, most joins — is viewed in
// place, listed directly or through ids, and ordering it allocates
// nothing.
func TestDocOrderSortedDistinctZeroAlloc(t *testing.T) {
	const n = 3000
	arena := NewTuples[relstore.Record](1)
	ids := make([]int32, 0, n/2)
	for i := 0; i < n; i++ {
		arena.Append([]relstore.Record{{Start: uint32(3 * i), End: uint32(3*i + 1)}}, nil)
		if i%2 == 1 {
			ids = append(ids, int32(i))
		}
	}
	var direct, listed View
	allocs := testing.AllocsPerRun(20, func() {
		direct, listed = DocOrder(arena, nil), DocOrder(arena, ids)
	})
	if allocs != 0 {
		t.Errorf("ordering a sorted, distinct view allocated %.1f times, want 0", allocs)
	}
	if direct.ids != nil || direct.Len() != n || listed.Len() != len(ids) || &listed.ids[0] != &ids[0] {
		t.Fatalf("sorted, distinct views were rebuilt: %d/%d bindings, ids %v", direct.Len(), listed.Len(), direct.ids != nil)
	}
	for k := 0; k < listed.Len(); k++ {
		if listed.At(k) != arena.Get(int(ids[k]), 0) {
			t.Fatalf("view position %d does not alias binding %d", k, ids[k])
		}
	}
}

// TestTuplesAppendAllocatesPerChunk is the arena's allocation guard:
// appending n tuples allocates per chunk (plus the growth of the chunk
// list), never per tuple.
func TestTuplesAppendAllocatesPerChunk(t *testing.T) {
	const n = 20 << tupleChunkShift
	prefix, suffix := tuple(0, 2, 1), tuple(0, 1, 9)
	allocs := testing.AllocsPerRun(5, func() {
		arena := NewTuples[relstore.Record](3)
		for i := 0; i < n; i++ {
			arena.Append(prefix, suffix)
		}
	})
	// 25 chunks, ~6 growths of the chunk list.
	if allocs > 40 {
		t.Errorf("appending %d tuples allocated %.0f times, want one per %d-tuple chunk", n, allocs, 1<<tupleChunkShift)
	}
}

// TestHotpathAnnotations pins the //blas:hotpath set of this package to
// what the allocation guards measure: Append by
// TestTuplesAppendAllocatesPerChunk, SpanAt by TestSpanAtZeroAlloc.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || !got["Append"] || !got["SpanAt"] {
		t.Errorf("//blas:hotpath set = %v, want exactly [Append SpanAt]: annotate new hot functions here and add an allocation guard for them", got)
	}
}

// TestSpanAtZeroAlloc guards the accessor joins read bindings through:
// a span from either arena, without allocating.
func TestSpanAtZeroAlloc(t *testing.T) {
	recs := []relstore.Record{{Start: 1, End: 9, Level: 1, Data: "x"}, {Start: 2, End: 3, Level: 2}}
	for _, ret := range []bool{false, true} {
		b := NewBindings(ret)
		b.Extend(recs)
		var got Span
		if allocs := testing.AllocsPerRun(20, func() { got = b.SpanAt(1) }); allocs != 0 {
			t.Errorf("ret=%v: SpanAt allocated %.1f times", ret, allocs)
		}
		if got != (Span{Start: 2, End: 3, Level: 2}) || b.Len() != 2 {
			t.Errorf("ret=%v: SpanAt(1) = %+v of %d bindings", ret, got, b.Len())
		}
	}
}

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
// checks that every access path — At, Column, AppendAll, SortedBy —
// sees exactly the tuples that were appended, in order.
func TestTuplesAcrossChunks(t *testing.T) {
	const chunk = 1 << tupleChunkShift
	for _, stride := range []int{1, 3} {
		for _, n := range []int{0, 1, 15, 16, 17, chunk - 1, chunk, chunk + 1, 3*chunk + 7} {
			var want [][]relstore.Record
			arena := NewTuples(stride)
			for i := 0; i < n; i++ {
				tp := tuple(i, stride, uint32(10*i))
				want = append(want, tp)
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
			col := arena.Column(stride - 1)
			for i, w := range want {
				if col[i] != w[stride-1] {
					t.Fatalf("stride %d n %d: Column[%d] = %v, want %v", stride, n, i, col[i], w[stride-1])
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
			// Concatenation: a partly filled arena followed by this one.
			joined := NewTuples(stride)
			joined.Append(tuple(-1, stride, 5), nil)
			joined.AppendAll(arena)
			if joined.Len() != n+1 {
				t.Fatalf("stride %d n %d: AppendAll Len = %d", stride, n, joined.Len())
			}
			for i, w := range want {
				if !slices.Equal(joined.At(i+1), w) {
					t.Fatalf("stride %d n %d: after AppendAll At(%d) = %v, want %v", stride, n, i+1, joined.At(i+1), w)
				}
			}
		}
	}
}

// TestTuplesOfViewsFlatSlice: a wrapped flat slice is indexable as an
// arena and shares the caller's records.
func TestTuplesOfViewsFlatSlice(t *testing.T) {
	var flat []relstore.Record
	for i := 0; i < 1000; i++ {
		flat = append(flat, tuple(i, 2, uint32(i))...)
	}
	arena := TuplesOf(flat, 2)
	if arena.Len() != 1000 {
		t.Fatalf("Len = %d, want 1000", arena.Len())
	}
	for _, i := range []int{0, 1, 511, 512, 999} {
		if got := arena.At(i); &got[0] != &flat[2*i] || len(got) != 2 {
			t.Fatalf("At(%d) does not alias flat[%d:%d]", i, 2*i, 2*i+2)
		}
	}
	if TuplesOf(nil, 1).Len() != 0 {
		t.Fatal("empty view has tuples")
	}
}

// TestSortedByIsStableSort compares SortedBy / SortedByStart / DocOrder
// with sort.SliceStable on shuffled input with duplicate starts, and
// checks that sorted input comes back as the same memory.
func TestSortedByIsStableSort(t *testing.T) {
	rnd := rand.New(rand.NewSource(3))
	const n = 2000
	arena := NewTuples(2)
	var ref [][]relstore.Record
	for i := 0; i < n; i++ {
		// Column 1 is the sort column; starts repeat, End tells twins apart.
		tp := []relstore.Record{{Start: uint32(i)}, {Start: uint32(rnd.Intn(n / 4)), End: uint32(i)}}
		arena.Append(tp, nil)
		ref = append(ref, tp)
	}
	sort.SliceStable(ref, func(a, b int) bool { return ref[a][1].Start < ref[b][1].Start })
	sorted := arena.SortedBy(1)
	for i, w := range ref {
		if !slices.Equal(sorted.At(i), w) {
			t.Fatalf("SortedBy: tuple %d = %v, want %v", i, sorted.At(i), w)
		}
	}
	again := sorted.SortedBy(1)
	if &again.At(0)[0] != &sorted.At(0)[0] {
		t.Error("SortedBy copied an already sorted arena")
	}

	recs := arena.Column(1)
	want := slices.Clone(recs)
	sort.SliceStable(want, func(a, b int) bool { return want[a].Start < want[b].Start })
	got := SortedByStart(recs)
	if !slices.Equal(got, want) {
		t.Fatal("SortedByStart differs from a stable sort")
	}
	if same := SortedByStart(got); &same[0] != &got[0] {
		t.Error("SortedByStart copied an already sorted slice")
	}

	// DocOrder: sorted, one record per start — the first of each run.
	var dedup []relstore.Record
	for i, r := range want {
		if i == 0 || r.Start != want[i-1].Start {
			dedup = append(dedup, r)
		}
	}
	if got := DocOrder(slices.Clone(recs)); !slices.Equal(got, dedup) {
		t.Fatalf("DocOrder returned %d records, want %d", len(got), len(dedup))
	}
	if DocOrder(nil) != nil {
		t.Error("DocOrder(nil) != nil")
	}
}

// TestTuplesAppendAllocatesPerChunk is the arena's allocation guard:
// appending n tuples allocates per chunk (plus the first chunk's
// doublings), never per tuple.
func TestTuplesAppendAllocatesPerChunk(t *testing.T) {
	const n = 20 << tupleChunkShift
	prefix, suffix := tuple(0, 2, 1), tuple(0, 1, 9)
	allocs := testing.AllocsPerRun(5, func() {
		arena := NewTuples(3)
		for i := 0; i < n; i++ {
			arena.Append(prefix, suffix)
		}
	})
	// 20 chunks, ~6 doublings of the first, ~6 growths of the chunk list.
	if allocs > 40 {
		t.Errorf("appending %d tuples allocated %.0f times, want one per %d-tuple chunk", n, allocs, 1<<tupleChunkShift)
	}
}

// TestHotpathAnnotations pins the //blas:hotpath set of this package to
// what TestTuplesAppendAllocatesPerChunk measures.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got["Append"] {
		t.Errorf("//blas:hotpath set = %v, want exactly [Append]: annotate new hot functions here and add an allocation guard for them", got)
	}
}

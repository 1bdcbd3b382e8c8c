package core

import (
	"runtime"
	"testing"

	"repro/internal/relstore"
)

// TestReleasedRecordChunksHoldNoData: Release clears every record chunk
// before the free list takes it back, so an idle chunk keeps no value
// string (and so no decoded value blob) reachable.
func TestReleasedRecordChunksHoldNoData(t *testing.T) {
	a := NewArena()
	recs := NewTuples[relstore.Record](a, 1)
	for i := 0; i < 3<<tupleChunkShift; i++ {
		recs.Append([]relstore.Record{{Start: uint32(i), Data: "value"}}, nil)
	}
	held := append([][]relstore.Record(nil), a.recs.held...)
	if len(held) != 3 {
		t.Fatalf("%d record chunks for 3 chunks of tuples", len(held))
	}
	a.Release()
	idleRecs.Lock()
	defer idleRecs.Unlock()
	for _, c := range held {
		for i, r := range c[:cap(c)] {
			if r != (relstore.Record{}) {
				t.Fatalf("released chunk keeps record %d: %+v", i, r)
			}
		}
	}
	pooled := 0
	for _, c := range idleRecs.byStride[1] {
		for i, r := range c[:cap(c)] {
			if r.Data != "" {
				t.Fatalf("an idle chunk keeps the value of record %d", i)
			}
		}
		pooled++
	}
	if pooled < len(held) {
		t.Errorf("%d idle record chunks, want at least the %d released", pooled, len(held))
	}
}

// TestArenaReleasedTwicePanics: a second Release would hand the same
// chunks to two queries, so it panics instead — as does taking a chunk
// from a released arena.
func TestArenaReleasedTwicePanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	a := NewArena()
	spans := NewTuples[Span](a, 2)
	spans.Append([]Span{{Start: 1}, {Start: 2}}, nil)
	a.Release()
	mustPanic("a second Release", a.Release)
	mustPanic("a chunk from a released arena", func() { Rows(a, 1) })
}

// TestArenaReusesChunks: a warm arena allocates no chunk — the chunks a
// released arena returned serve the next one, for every element type
// and stride — and only the chunk lists of its Tuples grow.
func TestArenaReusesChunks(t *testing.T) {
	fill := func() {
		a := NewArena()
		recs := NewTuples[relstore.Record](a, 1)
		spans := NewTuples[Span](a, 3)
		for i := 0; i < 4<<tupleChunkShift; i++ {
			recs.Append([]relstore.Record{{Start: uint32(i)}}, nil)
			spans.Append([]Span{{Start: 1}, {Start: 2}}, []Span{{Start: uint32(i)}})
		}
		rows := Rows(a, 4<<tupleChunkShift)
		if rows.Len() != recs.Len() || spans.Len() != recs.Len() {
			t.Fatalf("%d rows, %d spans, %d records", rows.Len(), spans.Len(), recs.Len())
		}
		a.Release()
	}
	fill()
	allocs := testing.AllocsPerRun(10, fill)
	// The arena, its three held lists and the three Tuples' chunk lists,
	// each grown to 4 chunks, are a few dozen small allocations; a
	// single fresh chunk would make them 12 more.
	if allocs > 30 {
		t.Errorf("a warm arena allocated %.0f times for 12 chunks", allocs)
	}
}

// TestIdleChunksCapped: a query that held far more than the cap leaves
// at most maxIdleChunkBytes idle behind, and a later query of another
// stride still finds room on the list: the huge query's chunks make way
// rather than keep every other stride allocating.
func TestIdleChunksCapped(t *testing.T) {
	huge := NewArena()
	spans := NewTuples[Span](huge, 1)
	one := []Span{{Start: 1}}
	for i := 0; i < 2*maxIdleChunkBytes/chunkBytes[Span](1); i++ {
		spans.Append(one, nil)
	}
	huge.Release()
	idleSpans.Lock()
	idle := idleSpans.idle
	idleSpans.Unlock()
	if idle > maxIdleChunkBytes {
		t.Fatalf("%d bytes idle after a huge query, cap %d", idle, maxIdleChunkBytes)
	}

	wide := func() {
		a := NewArena()
		sols := NewTuples[Span](a, 5)
		sols.Append([]Span{{}, {}, {}, {}, {}}, nil)
		a.Release()
	}
	wide()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	wide()
	runtime.ReadMemStats(&after)
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= uint64(chunkBytes[Span](5<<tupleChunkShift)) {
		t.Errorf("a stride-5 query allocated %d bytes, a fresh chunk: the full list kept no room for it", grown)
	}
}

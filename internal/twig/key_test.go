package twig

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
)

var keySink joinKey

// keyFixture returns n path-solution bindings and the same bindings
// scattered over a wider assignment row (reversed, every other column),
// with the column list that finds them again.
func keyFixture(n int) (recs, row []relstore.Record, cols []int) {
	recs = make([]relstore.Record, n)
	row = make([]relstore.Record, 2*n)
	cols = make([]int, n)
	for i := range recs {
		recs[i].Start = uint32(1000 + i*7)
		cols[i] = 2 * (n - 1 - i)
		row[cols[i]] = recs[i]
	}
	return recs, row, cols
}

// TestJoinKeyZeroAlloc is the allocation guard for the merge's hash-join
// keys: building a key over a shared prefix of up to joinKeyInline
// bindings must not allocate (the seed built a string key per lookup,
// twice per solution). Spilled keys (deeper prefixes) may allocate.
func TestJoinKeyZeroAlloc(t *testing.T) {
	recs, row, cols := keyFixture(joinKeyInline)
	if a := testing.AllocsPerRun(200, func() { keySink = solutionKey(recs) }); a != 0 {
		t.Errorf("solutionKey allocates %.1f times per call, want 0", a)
	}
	if a := testing.AllocsPerRun(200, func() { keySink = assignKey(row, cols) }); a != 0 {
		t.Errorf("assignKey allocates %.1f times per call, want 0", a)
	}
}

// TestCollectSolutionsAllocatesPerChunk guards the sweep's emission
// path: enumerating the path solutions of a pushed leaf element copies
// them into the leaf's arena — no per-solution slice, no closure — so a
// long run of emissions allocates once per arena chunk.
func TestCollectSolutionsAllocatesPerChunk(t *testing.T) {
	root := &tnode{id: 0}
	mid := &tnode{id: 1, parent: root}
	leaf := &tnode{id: 2, parent: mid, leafIdx: 0}
	leaf.path = []*tnode{root, mid, leaf}
	eng := &engine{nodes: []*tnode{root, mid, leaf}, root: root, leaves: []*tnode{leaf}, maxDepth: 3}
	const emissions = 4096
	allocs := testing.AllocsPerRun(5, func() {
		st := &sweepState{
			eng:     eng,
			stacks:  make([][]stackItem, 3),
			sols:    []core.Tuples{core.NewTuples(3)},
			scratch: make([]relstore.Record, 3),
		}
		// Two nested roots, two mids under the inner one: every leaf
		// element yields 2 (mid) x 2 (root) = 4 path solutions.
		st.stacks[0] = []stackItem{{rec: relstore.Record{Start: 1, Level: 1}, parentIdx: -1}, {rec: relstore.Record{Start: 2, Level: 2}, parentIdx: -1}}
		st.stacks[1] = []stackItem{{rec: relstore.Record{Start: 3, Level: 3}, parentIdx: 1}, {rec: relstore.Record{Start: 4, Level: 4}, parentIdx: 1}}
		for i := 0; i < emissions; i++ {
			st.stacks[2] = append(st.stacks[2][:0], stackItem{rec: relstore.Record{Start: uint32(10 + i), Level: 5}, parentIdx: 1})
			st.collectSolutions(leaf)
		}
		if got := st.sols[0].Len(); got != 4*emissions {
			t.Fatalf("%d solutions, want %d", got, 4*emissions)
		}
	})
	// 16384 solutions are 32 chunks; the rest is the fixture itself.
	if allocs > 60 {
		t.Errorf("%d emissions allocated %.0f times, want one per arena chunk", emissions, allocs)
	}
}

// TestJoinKeyIdentity: solution and assignment keys over the same
// bindings must collide, different bindings must not — including past
// the inline capacity, where starts spill into the string tail.
func TestJoinKeyIdentity(t *testing.T) {
	for _, n := range []int{1, 3, joinKeyInline, joinKeyInline + 1, joinKeyInline + 5} {
		recs, row, cols := keyFixture(n)
		if solutionKey(recs) != assignKey(row, cols) {
			t.Fatalf("n=%d: matching bindings produced different keys", n)
		}
		recs[n-1].Start++
		if solutionKey(recs) == assignKey(row, cols) {
			t.Fatalf("n=%d: differing bindings collided", n)
		}
	}
	// Length must be part of the identity: a 2-prefix whose starts are a
	// prefix of a 3-prefix is a different key.
	a := []relstore.Record{{Start: 1}, {Start: 2}}
	b := []relstore.Record{{Start: 1}, {Start: 2}, {Start: 0}}
	if solutionKey(a) == solutionKey(b) {
		t.Fatal("keys of different prefix lengths collided")
	}
}

// BenchmarkJoinKey tracks the per-solution cost of key construction on
// the merge's hot path (ReportAllocs is the benchmark-level guard).
func BenchmarkJoinKey(b *testing.B) {
	recs := make([]relstore.Record, 4)
	for i := range recs {
		recs[i].Start = uint32(i * 13)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		keySink = solutionKey(recs)
	}
}

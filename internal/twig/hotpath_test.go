package twig

import (
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/relstore"
)

// TestHotpathAnnotations pins the //blas:hotpath annotation set to the
// functions the allocation guards (TestCollectSolutionsAllocatesPerChunk,
// TestFoldLeafAllocatesPerChunk) actually measure. If an annotation
// drifts off a guarded function — renamed, moved, deleted — this fails
// loudly instead of letting hotalloc silently check nothing while the
// guard measures a function the analyzer no longer covers.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"bind", "climb", "collectSolutions", "foldLeaf", "sweep"}
	for _, name := range want {
		if !got[name] {
			t.Errorf("%s lost its //blas:hotpath annotation; the allocation guards and hotalloc no longer cover the same code", name)
		}
	}
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("//blas:hotpath set = %v, want exactly %v: annotate new hot functions here and add an allocation guard for them", names, want)
	}
}

// TestCollectSolutionsAllocatesPerChunk guards the sweep's emission
// path: enumerating the path solutions of a pushed leaf element copies
// their spans into the leaf's arena, and the return node's record into
// the return column — no per-solution slice, no closure — so a long run
// of emissions allocates once per arena chunk.
func TestCollectSolutionsAllocatesPerChunk(t *testing.T) {
	root := &tnode{id: 0}
	mid := &tnode{id: 1, parent: root}
	leaf := &tnode{id: 2, parent: mid, leafIdx: 0}
	leaf.path = []*tnode{root, mid, leaf}
	// The mid node is the return node.
	eng := &engine{nodes: []*tnode{root, mid, leaf}, root: root, leaves: []*tnode{leaf}, maxDepth: 3, retDepth: 1}
	const emissions = 4096
	allocs := testing.AllocsPerRun(5, func() {
		st := newSweepState(eng)
		// Two nested roots, two mids under the inner one: every leaf
		// element yields 2 (mid) x 2 (root) = 4 path solutions.
		st.stacks[0] = []stackItem{{rec: relstore.Record{Start: 1, Level: 1}, parentIdx: -1}, {rec: relstore.Record{Start: 2, Level: 2}, parentIdx: -1}}
		st.stacks[1] = []stackItem{{rec: relstore.Record{Start: 3, Level: 3}, parentIdx: 1}, {rec: relstore.Record{Start: 4, Level: 4}, parentIdx: 1}}
		for i := 0; i < emissions; i++ {
			st.stacks[2] = append(st.stacks[2][:0], stackItem{rec: relstore.Record{Start: uint32(10 + i), Level: 5}, parentIdx: 1})
			st.collectSolutions(leaf)
		}
		if got := st.sols[0].Len(); got != 4*emissions || st.ret.Len() != got {
			t.Fatalf("%d solutions, %d return bindings, want %d", got, st.ret.Len(), 4*emissions)
		}
		for i := 0; i < st.ret.Len(); i++ {
			if r, s := st.ret.At(i)[0], st.sols[0].At(i)[1]; core.SpanOf(&r) != s {
				t.Fatalf("solution %d: return binding %v, path binds %v", i, r, s)
			}
		}
	})
	// 16384 solutions fill 36 chunks in each of the two arenas (94
	// allocations with the chunk lists' growth and the fixture); a
	// per-solution allocation would be thousands.
	if allocs > 110 {
		t.Errorf("%d emissions allocated %.0f times, want one per arena chunk", emissions, allocs)
	}
}

// TestFoldLeafAllocatesPerChunk guards the merge's fold: matching
// assignments against a leaf's solutions allocates the sorted id list
// and the output rows a chunk at a time — no per-assignment key, map
// entry or slice. The solutions are emitted out of prefix order, so the
// sort runs.
func TestFoldLeafAllocatesPerChunk(t *testing.T) {
	const n = 4096
	prev := core.NewTuples[core.Span](2)
	sols := core.NewTuples[core.Span](3)
	for i := 0; i < n; i++ {
		prev.Append([]core.Span{{Start: 1}, {Start: uint32(10 + i)}}, nil)
	}
	for i := n - 1; i >= 0; i-- {
		for k := 0; k < 2; k++ {
			sols.Append([]core.Span{{Start: 1}, {Start: uint32(10 + i)}, {Start: uint32(2*n + 2*i + k)}}, nil)
		}
	}
	assigns := core.Rows(n)
	var out core.Tuples[int32]
	allocs := testing.AllocsPerRun(5, func() { out = foldLeaf(assigns, prev, sols, 2) })
	if out.Len() != 2*n {
		t.Fatalf("%d joined rows, want %d", out.Len(), 2*n)
	}
	for i := 0; i < out.Len(); i++ {
		row := out.At(i)
		if s := sols.At(int(row[1])); s[1] != prev.At(int(row[0]))[1] {
			t.Fatalf("row %d joins solution %v to prefix %v", i, s, prev.At(int(row[0])))
		}
		// Assignment-major, then emission order.
		if p := out.At(max(i-1, 0)); i > 0 && (row[0] < p[0] || row[0] == p[0] && row[1] <= p[1]) {
			t.Fatalf("row %d = %v follows %v", i, row, p)
		}
	}
	// 8192 rows are 16 chunks, plus the id list, the sort's scratch and
	// the chunk list's growth.
	if allocs > 40 {
		t.Errorf("folding %d assignments allocated %.0f times, want one per arena chunk", n, allocs)
	}
}

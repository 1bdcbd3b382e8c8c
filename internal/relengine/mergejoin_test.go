package relengine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// perTupleMergeJoin is the reference D-join the row-based
// mergeJoin must reproduce pair for pair: the same stack sweep over
// start-sorted inputs, on record tuples, allocating one slice per tuple.
func perTupleMergeJoin(tuples [][]relstore.Record, ancCol int, descs []relstore.Record, j translate.Join) [][]relstore.Record {
	sort.SliceStable(tuples, func(a, b int) bool { return tuples[a][ancCol].Start < tuples[b][ancCol].Start })
	sort.SliceStable(descs, func(a, b int) bool { return descs[a].Start < descs[b].Start })
	var out, stack [][]relstore.Record
	ti := 0
	for _, d := range descs {
		for ti < len(tuples) && tuples[ti][ancCol].Start < d.Start {
			stack = append(stack, tuples[ti])
			ti++
		}
		live := stack[:0]
		for _, t := range stack {
			if t[ancCol].End > d.Start {
				live = append(live, t)
			}
		}
		stack = live
		for _, t := range stack {
			if a := t[ancCol]; a.End > d.End && j.LevelOK(a.Level, d.Level) {
				out = append(out, append(append([]relstore.Record(nil), t...), d))
			}
		}
	}
	return out
}

// bindingsOf returns recs as a fragment's binding arena: records when
// ret (the return fragment), spans otherwise.
func bindingsOf(recs []relstore.Record, ret bool) *core.Bindings {
	b := core.NewBindings(ret)
	b.Extend(recs)
	return &b
}

// TestStructuralMergeJoinChunking exercises the row-based join
// (mergeJoin, whose output arena grows a chunk at a time) directly with
// synthetic nested intervals: the merge must equal the per-tuple
// reference join tuple for tuple, in order, once its id rows are
// resolved to records,
// and the nested-loop join must produce exactly the same tuples in its
// own order — with either input, or neither, held as the return
// fragment's record arena.
func TestStructuralMergeJoinChunking(t *testing.T) {
	rnd := rand.New(rand.NewSource(5))
	// 300 ancestor intervals, some nested two deep, each containing a
	// random number of descendants, plus stray descendants outside any
	// ancestor. Rows are two columns wide — a document root binding,
	// then the ancestor — so the join column is not the only one
	// carried along.
	root := []relstore.Record{{Start: 0, End: 1 << 30, Level: 1}}
	var ancs, descs []relstore.Record
	pos := uint32(1)
	for a := 0; a < 300; a++ {
		ancStart := pos
		pos++
		nested := a%5 == 0
		innerStart := pos
		if nested {
			pos++
		}
		n := rnd.Intn(8)
		for d := 0; d < n; d++ {
			descs = append(descs, relstore.Record{Start: pos, End: pos + 1, Level: 4, TagID: 2, Data: fmt.Sprint("d", pos)})
			pos += 2
		}
		if nested {
			ancs = append(ancs, relstore.Record{Start: innerStart, End: pos, Level: 3, TagID: 1})
			pos++
		}
		ancs = append(ancs, relstore.Record{Start: ancStart, End: pos, Level: 2, TagID: 1})
		pos++
		if a%7 == 0 { // a descendant between ancestors: matches nothing
			descs = append(descs, relstore.Record{Start: pos, End: pos + 1, Level: 4, TagID: 2})
			pos += 2
		}
	}
	// Shuffle both inputs: the join must sort.
	rnd.Shuffle(len(descs), func(i, j int) { descs[i], descs[j] = descs[j], descs[i] })
	rnd.Shuffle(len(ancs), func(i, j int) { ancs[i], ancs[j] = ancs[j], ancs[i] })

	var tuples [][]relstore.Record
	rows := core.NewTuples[int32](2)
	for i, a := range ancs {
		tuples = append(tuples, []relstore.Record{root[0], a})
		rows.Append([]int32{0, int32(i)}, nil)
	}
	bindings := [][]relstore.Record{root, ancs, descs}
	resolve := func(joined core.Tuples[int32]) [][]relstore.Record {
		out := make([][]relstore.Record, joined.Len())
		for i := range out {
			for c, id := range joined.At(i) {
				out[i] = append(out[i], bindings[c][id])
			}
		}
		return out
	}
	byPair := func(a, b []relstore.Record) int {
		return cmp.Or(cmp.Compare(a[1].Start, b[1].Start), cmp.Compare(a[2].Start, b[2].Start))
	}
	for _, j := range []translate.Join{{Anc: 1, Desc: 2, Gap: 1}, {Anc: 1, Desc: 2, Gap: 2, Exact: true}} {
		want := perTupleMergeJoin(slices.Clone(tuples), 1, slices.Clone(descs), j)
		if len(want) == 0 {
			t.Fatal("reference join found nothing — test data broken")
		}
		sorted := slices.Clone(want)
		slices.SortFunc(sorted, byPair)
		for ret := range 3 { // 0: neither input, 1: the ancestors, 2: the descendants
			for _, join := range []JoinAlgorithm{MergeJoin, NestedLoopJoin} {
				in := &joinInput{rows: rows, ancCol: 1, anc: bindingsOf(ancs, ret == 1), descs: bindingsOf(descs, ret == 2), j: j}
				var joined core.Tuples[int32]
				if join == MergeJoin {
					joined = mergeJoin(in)
				} else {
					joined = nestedLoopJoin(in)
				}
				if joined.Stride != 3 || joined.Len() != len(want) {
					t.Fatalf("%v ret=%d join=%d: %d rows of stride %d, want %d of stride 3", j, ret, join, joined.Len(), joined.Stride, len(want))
				}
				got, ref := resolve(joined), want
				if join == NestedLoopJoin {
					slices.SortFunc(got, byPair)
					ref = sorted
				}
				for i, w := range ref {
					if !slices.Equal(got[i], w) {
						t.Fatalf("%v ret=%d join=%d: tuple %d = %v, reference %v", j, ret, join, i, got[i], w)
					}
				}
			}
		}
	}
}

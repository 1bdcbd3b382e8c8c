package relengine

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestParallelMatchesSequential runs every translator over random
// documents and queries at several parallelism levels; results must be
// byte-identical to the sequential engine.
func TestParallelMatchesSequential(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	p := enginetest.DefaultDocParams()
	for docIdx := 0; docIdx < 4; docIdx++ {
		tree := enginetest.RandomDoc(rnd, p)
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
		for qIdx := 0; qIdx < 20; qIdx++ {
			query := enginetest.RandomQuery(rnd, p)
			parsed := xpath.MustParse(query)
			for _, trName := range []string{"dlabel", "split", "pushup", "unfold"} {
				tr, _ := translate.ByName(trName)
				plan, err := tr(ctx, parsed)
				if err != nil {
					t.Fatalf("%s/%s: %v", query, trName, err)
				}
				seq, err := Execute(nil, st, planner.Fixed(plan), Options{ExecConfig: core.ExecConfig{Parallelism: 1}})
				if err != nil {
					t.Fatalf("%s/%s sequential: %v", query, trName, err)
				}
				for _, par := range []int{2, 8} {
					got, err := Execute(nil, st, planner.Fixed(plan), Options{ExecConfig: core.ExecConfig{Parallelism: par}})
					if err != nil {
						t.Fatalf("%s/%s par=%d: %v", query, trName, par, err)
					}
					if !enginetest.StartsEqual(got.Starts(), seq.Starts()) {
						t.Fatalf("%s [%s] par=%d: %d results != sequential %d",
							query, trName, par, len(got.Records), len(seq.Records))
					}
				}
			}
		}
		st.Close()
	}
}

// TestPartitionedMergeJoinLargeInput forces the ancestor-interval
// partitioning path (inputs above minParallelTuples/minParallelDescs)
// and checks the join against both the sequential engine and the naive
// reference evaluator.
func TestPartitionedMergeJoinLargeInput(t *testing.T) {
	// 200 sections × 8 items (with nested notes) → 200 ancestors and
	// 1600+ descendants: well past both parallel thresholds.
	doc := xmltree.New("db")
	for s := 0; s < 200; s++ {
		sec := doc.AppendNew("section")
		for i := 0; i < 8; i++ {
			item := sec.AppendNew("item")
			item.AppendText("note", fmt.Sprintf("n%d", (s+i)%5))
		}
	}
	st, err := core.BuildFromTree(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	ctx := translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}

	for _, query := range []string{"//section//note", "/db//item/note", "//section[item]//note"} {
		want, err := enginetest.EvalStarts(doc, query)
		if err != nil {
			t.Fatal(err)
		}
		for _, trName := range []string{"dlabel", "split"} {
			tr, _ := translate.ByName(trName)
			plan, err := tr(ctx, xpath.MustParse(query))
			if err != nil {
				t.Fatal(err)
			}
			seq, err := Execute(nil, st, planner.Fixed(plan), Options{ExecConfig: core.ExecConfig{Parallelism: 1}})
			if err != nil {
				t.Fatal(err)
			}
			par, err := Execute(nil, st, planner.Fixed(plan), Options{ExecConfig: core.ExecConfig{Parallelism: 4}})
			if err != nil {
				t.Fatal(err)
			}
			if !enginetest.StartsEqual(seq.Starts(), want) {
				t.Fatalf("%s [%s] sequential: %d results, reference %d", query, trName, len(seq.Records), len(want))
			}
			if !enginetest.StartsEqual(par.Starts(), want) {
				t.Fatalf("%s [%s] parallel: %d results, reference %d", query, trName, len(par.Records), len(want))
			}
		}
	}
}

// perTupleMergeJoin is the reference D-join the row-based
// mergeJoinChunk must reproduce pair for pair: the same stack sweep over
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

// bindingsOf returns recs as a one-column binding arena.
func bindingsOf(recs []relstore.Record) core.Tuples[relstore.Record] {
	b := core.NewTuples[relstore.Record](1)
	b.Extend(recs)
	return b
}

// TestStructuralMergeJoinChunking exercises the row-based join directly
// with synthetic nested intervals: the sequential sweep must equal the
// per-tuple reference join tuple for tuple, in order, once its id rows
// are resolved to records; every partitioned run and the nested-loop
// join must produce exactly the same tuples (a nested ancestor pair
// split by a chunk cut emits them in a different order).
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
		newInput := func() *joinInput {
			return &joinInput{rows: rows, ancCol: 1, anc: bindingsOf(ancs), descs: bindingsOf(descs), j: j}
		}
		for _, workers := range []int{0, 1, 2, 3, 8, 16} {
			var joined core.Tuples[int32]
			if workers == 0 {
				joined = nestedLoopJoin(newInput())
			} else {
				joined = structuralMergeJoin(newInput(), workers)
			}
			if joined.Stride != 3 || joined.Len() != len(want) {
				t.Fatalf("%v workers=%d: %d rows of stride %d, want %d of stride 3", j, workers, joined.Len(), joined.Stride, len(want))
			}
			got, ref := resolve(joined), want
			if workers != 1 {
				ref = slices.Clone(want)
				slices.SortFunc(got, byPair)
				slices.SortFunc(ref, byPair)
			}
			for i, w := range ref {
				if !slices.Equal(got[i], w) {
					t.Fatalf("%v workers=%d: tuple %d = %v, reference %v", j, workers, i, got[i], w)
				}
			}
		}
	}
}

package relengine

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// TestHotpathAnnotations pins this package's //blas:hotpath set to what
// TestMergeJoinAllocatesPerChunk measures.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got["mergeJoin"] {
		t.Errorf("//blas:hotpath set = %v, want exactly [mergeJoin]: annotate new hot functions here and add an allocation guard for them", got)
	}
}

// TestMergeJoinAllocatesPerChunk guards the D-join's inner loop: joining
// rows reads spans through core.Bindings.SpanAt and copies int32 ids
// into the output arena a chunk at a time — no binding copies, no
// per-row slice.
func TestMergeJoinAllocatesPerChunk(t *testing.T) {
	const n = 1024 // ancestors, each containing 8 descendants
	var ancs, descs []relstore.Record
	for a := 0; a < n; a++ {
		base := uint32(a * 20)
		ancs = append(ancs, relstore.Record{Start: base, End: base + 19, Level: 2})
		for d := uint32(0); d < 8; d++ {
			descs = append(descs, relstore.Record{Start: base + 1 + 2*d, End: base + 2 + 2*d, Level: 3})
		}
	}
	in := &joinInput{rows: core.Rows(n), anc: bindingsOf(ancs, false), descs: bindingsOf(descs, true), j: translate.Join{Gap: 1, Exact: true}}
	var out core.Tuples[int32]
	allocs := testing.AllocsPerRun(5, func() { out = mergeJoin(in) })
	if out.Len() != len(descs) {
		t.Fatalf("%d joined rows, want %d", out.Len(), len(descs))
	}
	// 8192 rows are 16 chunks, plus the first chunk's doublings and the
	// growth of the chunk list and the stack.
	if allocs > 40 {
		t.Errorf("joining %d descendants allocated %.0f times, want one per arena chunk", len(descs), allocs)
	}
}

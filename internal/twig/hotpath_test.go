package twig

import (
	"sort"
	"testing"

	"repro/internal/analysis"
)

// TestHotpathAnnotations pins the //blas:hotpath annotation set to the
// functions the zero-alloc guards (TestJoinKeyZeroAlloc /
// BenchmarkJoinKey, TestCollectSolutionsAllocatesPerChunk) actually
// measure. If an annotation drifts off a
// benchmarked function — renamed, moved, deleted — this fails loudly
// instead of letting hotalloc silently check nothing while the
// benchmark guards a function the analyzer no longer covers.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"assignKey", "climb", "collectSolutions", "solutionKey", "spillStarts", "sweep"}
	for _, name := range want {
		if !got[name] {
			t.Errorf("%s lost its //blas:hotpath annotation; the BenchmarkJoinKey zero-alloc guard and hotalloc no longer cover the same code", name)
		}
	}
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("//blas:hotpath set = %v, want exactly %v: annotate new hot functions here and add a zero-alloc benchmark guard for them", names, want)
	}
}

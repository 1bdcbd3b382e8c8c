package twig

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// TestBatchStreamReleasesOnce: the sweep reads every node's cursor to
// the end of its input, where each cursor run gives its pooled buffer
// back; read past that end, a cursor neither reads its input again
// (into a buffer it no longer owns) nor releases a buffer a second
// time, which would panic.
func TestBatchStreamReleasesOnce(t *testing.T) {
	const n = 3 * relstore.BatchSize // several heap pages per stream
	var doc strings.Builder
	doc.WriteString("<r>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&doc, "<a><b>v%d</b></a>", i%3)
	}
	doc.WriteString("</r>")
	tree, err := xmltree.ParseString(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.BuildFromTree(tree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := translate.Baseline(ctxFor(st), xpath.MustParse("/r/a/b"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := relstore.NewExecContext()
	eng, err := build(ctx, st, planner.Fixed(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(eng.nodes) < 2 {
		t.Fatalf("%d twig nodes, want several streams", len(eng.nodes))
	}
	a := core.NewArena()
	defer a.Release()
	_, ret, err := eng.sweepStreams(a)
	if err != nil {
		t.Fatal(err)
	}
	if ret.Len() != n {
		t.Fatalf("the sweep bound %d return records, want %d", ret.Len(), n)
	}
	for _, nd := range eng.nodes {
		if nd.stream.Head() != nil || nd.stream.Err() != nil {
			t.Fatalf("node %d: the sweep ended before its stream (err %v)", nd.id, nd.stream.Err())
		}
	}
	reads, visited := ctx.PageReads(), ctx.Visited()
	for i := 0; i < 3; i++ {
		for _, nd := range eng.nodes {
			if nd.stream.Head() != nil || nd.stream.Err() != nil {
				t.Fatalf("node %d: a head or an error past the end", nd.id)
			}
		}
	}
	if ctx.PageReads() != reads || ctx.Visited() != visited {
		t.Fatalf("drained past the end: %d more page reads, %d more records", ctx.PageReads()-reads, ctx.Visited()-visited)
	}
}

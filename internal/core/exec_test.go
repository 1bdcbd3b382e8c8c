package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/plabel"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
)

// TestCollectFiltersEveryBatch: the cursor a fragment's Selection
// opens applies the fragment's value and level predicates to every
// page share it reads, and the buffer it reads into must not show in
// the answer. With and without a filter, the cursor must return exactly
// what collect-then-filter returns and account the same visited
// records, and — the page requests being the same — the page reads must
// not depend on the filter.
func TestCollectFiltersEveryBatch(t *testing.T) {
	const n = 4 * relstore.BatchSize
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
	st, err := BuildFromTree(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	lbl, err := st.Scheme().LabelPath([]string{"r", "a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	access := translate.Access{Kind: translate.AccessPLabelEq, Range: plabel.Range{Lo: lbl, Hi: lbl, Exact: true}}

	refCtx := relstore.NewExecContext()
	all, err := drain(st.Select(&translate.Fragment{Access: access}).Open(refCtx))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != n {
		t.Fatalf("reference scan: %d records, want %d", len(all), n)
	}
	keep := func(ok func(relstore.Record) bool) []relstore.Record {
		var out []relstore.Record
		for _, r := range all {
			if ok(r) {
				out = append(out, r)
			}
		}
		return out
	}
	v1, none := "v1", "none"
	cases := []struct {
		name string
		frag translate.Fragment
		want []relstore.Record
	}{
		{"unfiltered", translate.Fragment{Access: access}, all},
		{"value", translate.Fragment{Access: access, Value: &v1}, keep(func(r relstore.Record) bool { return r.Data == v1 })},
		{"level", translate.Fragment{Access: access, LevelEq: 3}, all},
		{"level-drop-all", translate.Fragment{Access: access, LevelEq: 2}, nil},
		{"drop-all", translate.Fragment{Access: access, Value: &none}, nil},
	}
	for _, c := range cases {
		ctx := relstore.NewExecContext()
		got, err := drain(st.Select(&c.frag).Open(ctx))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(c.want) {
			t.Fatalf("%s: %d records, want %d", c.name, len(got), len(c.want))
		}
		for i, w := range c.want {
			if got[i] != w {
				t.Fatalf("%s: record %d = %+v, want %+v", c.name, i, got[i], w)
			}
		}
		if ctx.Visited() != refCtx.Visited() {
			t.Errorf("%s: visited %d, reference %d", c.name, ctx.Visited(), refCtx.Visited())
		}
		if ctx.PageReads() != refCtx.PageReads() {
			t.Errorf("%s: %d page reads, %d without filter", c.name, ctx.PageReads(), refCtx.PageReads())
		}
	}
}

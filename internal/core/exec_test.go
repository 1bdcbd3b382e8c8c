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

// TestCollectFiltersEveryBatch: Collect decodes every batch into one
// reused buffer and filters it there with the stream's own filter, and
// neither may show in the answer. With and without a filter, the arena
// must hold exactly what collect-then-filter returns and account the
// same visited records, and — the batch requests being the same — the
// page reads must not depend on the filter.
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
	ref, err := st.PrepareFragmentStream(refCtx, &translate.Fragment{Access: access})
	if err != nil {
		t.Fatal(err)
	}
	bi, err := ref.Open(refCtx)
	if err != nil {
		t.Fatal(err)
	}
	all, err := relstore.CollectBatches(bi, relstore.BatchSize)
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
		{"drop-all", translate.Fragment{Access: access, Value: &none}, nil},
	}
	batch := relstore.GetBatch()
	defer batch.Release()
	for _, c := range cases {
		ctx := relstore.NewExecContext()
		fs, err := st.PrepareFragmentStream(ctx, &c.frag)
		if err != nil {
			t.Fatal(err)
		}
		got, err := fs.Collect(ctx, batch, true)
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != len(c.want) || got.Spans.Len() != 0 {
			t.Fatalf("%s: %d records (%d spans), want %d records", c.name, got.Len(), got.Spans.Len(), len(c.want))
		}
		for i, w := range c.want {
			if r := *got.Recs.Get(i, 0); r != w {
				t.Fatalf("%s: record %d = %+v, want %+v", c.name, i, r, w)
			}
		}
		if ctx.Visited() != refCtx.Visited() {
			t.Errorf("%s: visited %d, reference %d", c.name, ctx.Visited(), refCtx.Visited())
		}
		if ctx.PageReads() != refCtx.PageReads() {
			t.Errorf("%s: %d page reads, %d without filter", c.name, ctx.PageReads(), refCtx.PageReads())
		}
		// A non-return fragment binds the same nodes as spans only.
		spans, err := fs.Collect(nil, batch, false)
		if err != nil {
			t.Fatal(err)
		}
		if spans.Len() != len(c.want) || spans.Recs.Len() != 0 {
			t.Fatalf("%s: %d spans (%d records), want %d spans", c.name, spans.Len(), spans.Recs.Len(), len(c.want))
		}
		for i, w := range c.want {
			if sp, ref := spans.SpanAt(i), SpanOf(&w); sp != ref || *spans.Spans.Get(i, 0) != ref || got.SpanAt(i) != ref {
				t.Fatalf("%s: span %d = %+v, want %+v", c.name, i, sp, ref)
			}
		}
	}
	// A nil context (no counters) is valid.
	fs, err := st.PrepareFragmentStream(nil, &translate.Fragment{Access: access})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fs.Collect(nil, batch, false); err != nil || got.Len() != n {
		t.Fatalf("nil context: %d records, err %v", got.Len(), err)
	}
}

package core

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/relstore"
	"repro/internal/xmltree"
)

// drain returns a cursor's records.
func drain(c *relstore.Cursor, err error) ([]relstore.Record, error) {
	if err != nil {
		return nil, err
	}
	var out []relstore.Record
	err = c.Drain(func(recs []relstore.Record) { out = append(out, recs...) })
	return out, err
}

// scanAll returns every record of r in cluster-key order.
func scanAll(r *relstore.Relation) ([]relstore.Record, error) {
	var out []relstore.Record
	buf := make([]relstore.Record, relstore.BatchSize)
	it := r.ScanAllBatch(nil)
	for {
		n, err := it.NextBatch(buf)
		if err != nil || n == 0 {
			return out, err
		}
		out = append(out, buf[:n]...)
	}
}

const sampleDoc = `<proteinDatabase>
  <proteinEntry>
    <protein>
      <name>cytochrome c</name>
      <classification><superfamily>cytochrome c</superfamily></classification>
    </protein>
    <reference>
      <refinfo>
        <authors><author>Evans, M.J.</author></authors>
        <year>2001</year>
        <title>The human somatic cytochrome c gene</title>
      </refinfo>
    </reference>
  </proteinEntry>
</proteinDatabase>`

func buildSample(t *testing.T) *Store {
	t.Helper()
	tree, err := xmltree.ParseString(sampleDoc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromTree(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestBuildFromTreeBasics(t *testing.T) {
	st := buildSample(t)
	defer st.Close()

	// 12 element nodes, no attributes.
	if st.NodeCount() != 12 {
		t.Fatalf("NodeCount = %d, want 12", st.NodeCount())
	}
	if st.SP().Count() != 12 || st.SD().Count() != 12 {
		t.Fatalf("relation counts = %d, %d", st.SP().Count(), st.SD().Count())
	}
	if st.Scheme().NumTags() != 12 {
		t.Fatalf("tags = %d, want 12", st.Scheme().NumTags())
	}
	if !st.Schema().HasEdge("protein", "classification") {
		t.Fatal("schema edge missing")
	}
	if st.Schema().MaxDepth() != 6 {
		t.Fatalf("depth = %d, want 6", st.Schema().MaxDepth())
	}
}

func TestSuffixPathSelection(t *testing.T) {
	st := buildSample(t)
	defer st.Close()

	// /proteinDatabase/proteinEntry/protein/name resolves to one node via
	// a single P-label selection (the heart of the paper).
	lbl, err := st.Scheme().LabelPath([]string{"proteinDatabase", "proteinEntry", "protein", "name"})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := drain(st.SP().PLabel(lbl).Open(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[0].Data != "cytochrome c" {
		t.Fatalf("data = %q", recs[0].Data)
	}
	if recs[0].Level != 4 {
		t.Fatalf("level = %d, want 4", recs[0].Level)
	}
}

func TestDLabelNesting(t *testing.T) {
	st := buildSample(t)
	defer st.Close()

	id, ok := st.TagID("proteinEntry")
	if !ok {
		t.Fatal("tag missing")
	}
	entries, err := drain(st.SD().Tag(id).Open(nil))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries: %d, %v", len(entries), err)
	}
	yid, _ := st.TagID("year")
	years, err := drain(st.SD().Tag(yid).Open(nil))
	if err != nil || len(years) != 1 {
		t.Fatalf("years: %d, %v", len(years), err)
	}
	e, y := entries[0], years[0]
	if !(e.Start < y.Start && e.End > y.End) {
		t.Fatalf("year %v not nested in entry %v", y, e)
	}
	if y.Data != "2001" {
		t.Fatalf("year data = %q", y.Data)
	}
}

func TestAttributesShredded(t *testing.T) {
	tree, _ := xmltree.ParseString(`<site><person id="p1"><name>n</name></person></site>`)
	st, err := BuildFromTree(tree, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if st.NodeCount() != 4 { // site, person, @id, name
		t.Fatalf("NodeCount = %d, want 4", st.NodeCount())
	}
	id, ok := st.TagID("@id")
	if !ok {
		t.Fatal("@id not in scheme")
	}
	attrs, err := drain(st.SD().Tag(id).Open(nil))
	if err != nil || len(attrs) != 1 {
		t.Fatalf("attrs: %d, %v", len(attrs), err)
	}
	if attrs[0].Data != "p1" {
		t.Fatalf("attr data = %q", attrs[0].Data)
	}
	if attrs[0].Level != 3 {
		t.Fatalf("attr level = %d, want 3", attrs[0].Level)
	}
}

func TestTagNameRoundTrip(t *testing.T) {
	st := buildSample(t)
	defer st.Close()
	for _, tag := range st.Scheme().Tags() {
		id, ok := st.TagID(tag)
		if !ok {
			t.Fatalf("TagID(%s) missing", tag)
		}
		name, ok := st.TagName(id)
		if !ok || name != tag {
			t.Fatalf("TagName(%d) = %q, want %q", id, name, tag)
		}
	}
	if _, ok := st.TagName(0); ok {
		t.Fatal("TagName(0) should fail")
	}
	if _, ok := st.TagName(9999); ok {
		t.Fatal("TagName(9999) should fail")
	}
}

func TestBuildFromReaderMatchesTree(t *testing.T) {
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(sampleDoc)), nil
	}
	st1, err := BuildFromReader(open, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st1.Close()
	st2 := buildSample(t)
	defer st2.Close()

	if st1.NodeCount() != st2.NodeCount() {
		t.Fatalf("node counts differ: %d vs %d", st1.NodeCount(), st2.NodeCount())
	}
	r1, err := scanAll(st1.SP())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := scanAll(st2.SP())
	if err != nil {
		t.Fatal(err)
	}
	if len(r1) != len(r2) {
		t.Fatalf("record counts differ")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, r1[i], r2[i])
		}
	}
}

func TestPersistAndOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	tree, _ := xmltree.ParseString(sampleDoc)
	st, err := BuildFromTree(tree, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	nodes := st.NodeCount()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.NodeCount() != nodes {
		t.Fatalf("NodeCount after reopen = %d", st2.NodeCount())
	}
	if st2.Scheme().NumTags() != 12 {
		t.Fatalf("tags after reopen = %d", st2.Scheme().NumTags())
	}
	if !st2.Schema().HasEdge("refinfo", "year") {
		t.Fatal("schema lost")
	}
	lbl, _ := st2.Scheme().LabelPath([]string{"proteinDatabase", "proteinEntry", "protein", "name"})
	recs, err := drain(st2.SP().PLabel(lbl).Open(nil))
	if err != nil || len(recs) != 1 {
		t.Fatalf("scan after reopen: %d, %v", len(recs), err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without dir should fail")
	}
	if _, err := Open(Options{Dir: t.TempDir()}); err == nil {
		t.Fatal("Open of empty dir should fail")
	}
}

func TestBuildFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "doc.xml")
	if err := os.WriteFile(path, []byte(sampleDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromFile(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.NodeCount() != 12 {
		t.Fatalf("NodeCount = %d", st.NodeCount())
	}
}

func TestCountersAndCaches(t *testing.T) {
	st := buildSample(t)
	defer st.Close()
	if err := st.DropCaches(); err != nil {
		t.Fatal(err)
	}
	ctx := relstore.NewExecContext()
	lbl, _ := st.Scheme().LabelPath([]string{"proteinDatabase", "proteinEntry"})
	if _, err := drain(st.SP().PLabel(lbl).Open(ctx)); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Visited(); got != 1 {
		t.Fatalf("visited = %d, want 1", got)
	}
	if ctx.PageMisses() == 0 {
		t.Fatal("expected cold-cache page misses")
	}
}

func TestBuildNilTree(t *testing.T) {
	if _, err := BuildFromTree(nil, Options{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestMalformedFileRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.xml")
	if err := os.WriteFile(path, []byte("<a><b></a>"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildFromFile(path, Options{}); err == nil {
		t.Fatal("expected parse error")
	}
}

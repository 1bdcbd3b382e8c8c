package enginetest

import (
	"math/rand"
	"testing"

	"repro/internal/relstore"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

func TestLabelTreeMatchesShredder(t *testing.T) {
	// The helper must assign exactly the labels the core shredder does;
	// MustBuild + a P-label lookup cross-checks one known node.
	doc := `<a><b attr="v">text</b><c/></a>`
	st, tree, err := MustBuild(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	labels := LabelTree(tree)

	// Verify against the store: every (start, end, level) must appear.
	lbl, err := st.Scheme().LabelPath([]string{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	var recs []relstore.Record
	cur, err := st.SP().PLabel(lbl).Open(nil)
	if err != nil {
		t.Fatal(err)
	}
	err = cur.Drain(func(batch []relstore.Record) { recs = append(recs, batch...) })
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("b not found in store")
	}
	rec := recs[0]
	b := tree.Children[0]
	if labels[b].Start != rec.Start || labels[b].End != rec.End || labels[b].Level != rec.Level {
		t.Fatalf("helper labels %v != store record %d,%d,%d", labels[b], rec.Start, rec.End, rec.Level)
	}
}

func TestRandomQueriesParse(t *testing.T) {
	rnd := rand.New(rand.NewSource(9))
	p := DefaultDocParams()
	for i := 0; i < 500; i++ {
		q := RandomQuery(rnd, p)
		parsed, err := xpath.Parse(q)
		if err != nil {
			t.Fatalf("RandomQuery produced unparseable %q: %v", q, err)
		}
		// Round trip through String must be stable.
		again, err := xpath.Parse(parsed.String())
		if err != nil {
			t.Fatalf("rendered query %q unparseable: %v", parsed.String(), err)
		}
		if again.String() != parsed.String() {
			t.Fatalf("unstable rendering: %q -> %q", parsed.String(), again.String())
		}
	}
}

func TestRandomDocsWellFormed(t *testing.T) {
	rnd := rand.New(rand.NewSource(10))
	p := DefaultDocParams()
	for i := 0; i < 50; i++ {
		doc := RandomDoc(rnd, p)
		s := doc.String()
		back, err := xmltree.ParseString(s)
		if err != nil {
			t.Fatalf("random doc does not round-trip: %v\n%s", err, s)
		}
		if back.String() != s {
			t.Fatal("unstable serialization")
		}
	}
}

func TestEvalStartsSortedAndErrors(t *testing.T) {
	doc, _ := xmltree.ParseString(`<r><x/><y><x/></y></r>`)
	starts, err := EvalStarts(doc, "//x")
	if err != nil {
		t.Fatal(err)
	}
	if len(starts) != 2 || starts[0] >= starts[1] {
		t.Fatalf("starts = %v", starts)
	}
	if _, err := EvalStarts(doc, "not a query"); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestStartsEqualAndFormat(t *testing.T) {
	if !StartsEqual([]uint32{1, 2}, []uint32{1, 2}) {
		t.Fatal("equal lists reported unequal")
	}
	if StartsEqual([]uint32{1}, []uint32{1, 2}) || StartsEqual([]uint32{1, 3}, []uint32{1, 2}) {
		t.Fatal("unequal lists reported equal")
	}
	if FormatStarts([]uint32{1, 2}) != "[1 2]" {
		t.Fatalf("format = %s", FormatStarts([]uint32{1, 2}))
	}
}

func TestMustBuildErrors(t *testing.T) {
	if _, _, err := MustBuild("<broken"); err == nil {
		t.Fatal("malformed doc accepted")
	}
}

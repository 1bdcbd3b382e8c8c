package relengine

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/enginetest"
	"repro/internal/planner"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const proteinDoc = `<proteinDatabase>
  <proteinEntry>
    <protein>
      <name>cytochrome c</name>
      <classification><superfamily>cytochrome c</superfamily></classification>
    </protein>
    <reference>
      <refinfo>
        <authors><author>Evans, M.J.</author><author>Smith, K.</author></authors>
        <year>2001</year>
        <title>The human somatic cytochrome c gene</title>
      </refinfo>
    </reference>
  </proteinEntry>
  <proteinEntry>
    <protein>
      <name>hemoglobin</name>
      <classification><superfamily>globin</superfamily></classification>
    </protein>
    <reference>
      <refinfo>
        <authors><author>Jones, A.</author></authors>
        <year>2001</year>
        <title>Other paper</title>
      </refinfo>
    </reference>
  </proteinEntry>
</proteinDatabase>`

func allTranslators(t *testing.T, st *core.Store) map[string]translate.Translator {
	t.Helper()
	return map[string]translate.Translator{
		"dlabel": translate.Baseline,
		"split":  translate.Split,
		"pushup": translate.PushUp,
		"unfold": translate.Unfold,
	}
}

func ctxFor(st *core.Store) translate.Context {
	return translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
}

// runAll executes query under every translator and checks each against
// the reference evaluator.
func runAll(t *testing.T, st *core.Store, tree *xmltree.Node, query string) {
	t.Helper()
	want, err := enginetest.EvalStarts(tree, query)
	if err != nil {
		t.Fatalf("reference eval %s: %v", query, err)
	}
	for name, tr := range allTranslators(t, st) {
		p, err := tr(ctxFor(st), xpath.MustParse(query))
		if err != nil {
			t.Fatalf("%s: translate %s: %v", name, query, err)
		}
		res, err := Execute(nil, st, planner.Fixed(p), Options{})
		if err != nil {
			t.Fatalf("%s: execute %s: %v", name, query, err)
		}
		if !enginetest.StartsEqual(res.Starts(), want) {
			t.Errorf("%s: %s\n got %s\nwant %s\nplan:\n%s", name, query,
				enginetest.FormatStarts(res.Starts()), enginetest.FormatStarts(want), p)
		}
	}
}

func TestProteinQueries(t *testing.T) {
	st, tree, err := enginetest.MustBuild(proteinDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	queries := []string{
		"/proteinDatabase/proteinEntry/protein/name",
		"//superfamily",
		"//refinfo//author",
		"/proteinDatabase//year",
		"//authors/author",
		`/proteinDatabase/proteinEntry[protein//superfamily="cytochrome c"]/reference/refinfo[//author="Evans, M.J." and year="2001"]/title`,
		`//proteinEntry[protein/name="hemoglobin"]//title`,
		`//refinfo[year="2001"]/title`,
		`//author="Jones, A."`,
		"/proteinDatabase/proteinEntry/reference/refinfo/authors/author",
		"/proteinDatabase/*/protein",
		"//proteinEntry/*/name",
		"/proteinDatabase/proteinEntry[protein/classification/superfamily]/protein/name",
		"//nosuchtag",
		"/wrongroot/name",
	}
	for _, q := range queries {
		runAll(t, st, tree, q)
	}
}

// runWith runs a whole plan with its D-joins run by join and returns
// the answer's start positions.
func runWith(t testing.TB, st *core.Store, p *planner.Physical, join func(joinInput) core.Tuples[int32]) []uint32 {
	t.Helper()
	a := core.NewArena()
	defer a.Release()
	res, err := run(nil, a, st, p, join)
	if err != nil {
		t.Fatal(err)
	}
	return res.Starts()
}

func TestNestedLoopJoinAgreesWithMerge(t *testing.T) {
	st, _, err := enginetest.MustBuild(proteinDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	q := xpath.MustParse(`//proteinEntry[protein//superfamily="globin"]//title`)
	p, err := translate.Split(ctxFor(st), q)
	if err != nil {
		t.Fatal(err)
	}
	merge := runWith(t, st, planner.Fixed(p), mergeJoin)
	nl := runWith(t, st, planner.Fixed(p), nestedLoopJoin)
	if !enginetest.StartsEqual(merge, nl) {
		t.Fatalf("join algorithms disagree: %v vs %v", merge, nl)
	}
	if len(merge) == 0 {
		t.Fatal("expected results")
	}
}

// BenchmarkAblationDJoin compares the structural merge join against the
// nested-loop D-join on the protein corpus's QP3 (the paper's premise
// that join implementation matters, §1).
func BenchmarkAblationDJoin(b *testing.B) {
	st, err := core.BuildFromTree(datagen.Protein(datagen.Options{Seed: 1, Factor: 1}), core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	q := xpath.MustParse("/ProteinDatabase/ProteinEntry[reference/refinfo[citation and year]]/protein/name")
	p, err := translate.PushUp(ctxFor(st), q)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		join func(joinInput) core.Tuples[int32]
	}{
		{"merge", mergeJoin},
		{"nestedloop", nestedLoopJoin},
	} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := st.DropCaches(); err != nil {
					b.Fatal(err)
				}
				runWith(b, st, planner.Fixed(p), mode.join)
			}
		})
	}
}

// TestRecursiveDocument exercises self-nested tags, where suffix ranges
// span multiple source paths and descendant joins must not overcount.
func TestRecursiveDocument(t *testing.T) {
	doc := `<list>
	  <item><list><item>deep1</item><item>deep2</item></list></item>
	  <item>shallow</item>
	</list>`
	st, tree, err := enginetest.MustBuild(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, q := range []string{
		"//item",
		"//list//item",
		"//list/item",
		"/list/item/list/item",
		"//item//item",
		"//item[list]",
	} {
		runAll(t, st, tree, q)
	}
}

// TestDifferentialRandom compares every translator against the reference
// evaluator on random documents and random queries.
func TestDifferentialRandom(t *testing.T) {
	rnd := rand.New(rand.NewSource(2024))
	p := enginetest.DefaultDocParams()
	for docIdx := 0; docIdx < 12; docIdx++ {
		tree := enginetest.RandomDoc(rnd, p)
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qIdx := 0; qIdx < 30; qIdx++ {
			runAll(t, st, tree, enginetest.RandomQuery(rnd, p))
		}
		st.Close()
	}
}

func TestEmptyPlanShortCircuits(t *testing.T) {
	st, _, err := enginetest.MustBuild(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := translate.Split(ctxFor(st), xpath.MustParse("/a/zzz"))
	if err != nil {
		t.Fatal(err)
	}
	ctx := relstore.NewExecContext()
	res, err := Execute(ctx, st, planner.Fixed(p), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatal("expected empty result")
	}
	if ctx.Visited() != 0 {
		t.Fatal("empty plan should not touch the store")
	}
}

func TestVisitedElementsOrdering(t *testing.T) {
	// The paper's core claim: BLAS translators visit fewer elements than
	// the D-labeling baseline on suffix path queries.
	doc := xmltree.New("db")
	for i := 0; i < 50; i++ {
		e := doc.AppendNew("entry")
		p := e.AppendNew("protein")
		p.AppendText("name", "x")
		r := e.AppendNew("ref")
		r.AppendText("name", "y") // names under ref inflate the baseline's name scan
	}
	st, err := core.BuildFromTree(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	q := xpath.MustParse("/db/entry/protein/name")
	measure := func(tr translate.Translator) uint64 {
		p, err := tr(ctxFor(st), q)
		if err != nil {
			t.Fatal(err)
		}
		ctx := relstore.NewExecContext()
		res, err := Execute(ctx, st, planner.Fixed(p), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) != 50 {
			t.Fatalf("got %d results", len(res.Records))
		}
		return ctx.Visited()
	}
	base := measure(translate.Baseline)
	split := measure(translate.Split)
	if split >= base {
		t.Fatalf("split visited %d >= baseline %d", split, base)
	}
	// The suffix path is answered with exactly the matching elements.
	if split != 50 {
		t.Fatalf("split visited %d, want 50", split)
	}
}

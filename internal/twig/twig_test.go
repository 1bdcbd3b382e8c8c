package twig

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/enginetest"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

const playsDoc = `<PLAYS>
  <PLAY>
    <TITLE>Hamlet</TITLE>
    <ACT>
      <TITLE>ACT I</TITLE>
      <SCENE>
        <TITLE>SCENE III. A public place.</TITLE>
        <SPEECH><SPEAKER>First</SPEAKER><LINE>line one</LINE><LINE>line two</LINE></SPEECH>
        <SPEECH><SPEAKER>Second</SPEAKER><LINE>line three</LINE></SPEECH>
      </SCENE>
      <SCENE>
        <TITLE>SCENE IV</TITLE>
        <SPEECH><SPEAKER>Third</SPEAKER><LINE>line four</LINE></SPEECH>
      </SCENE>
    </ACT>
    <EPILOGUE><LINE>closing<STAGEDIR>exit</STAGEDIR></LINE></EPILOGUE>
  </PLAY>
  <PLAY>
    <TITLE>Macbeth</TITLE>
    <ACT>
      <TITLE>ACT I</TITLE>
      <SCENE>
        <TITLE>SCENE I</TITLE>
        <SPEECH><SPEAKER>Witch</SPEAKER><LINE>when shall we</LINE></SPEECH>
      </SCENE>
    </ACT>
  </PLAY>
</PLAYS>`

func ctxFor(st *core.Store) translate.Context {
	return translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}
}

// runAll executes a query with every translator on the twig engine and
// compares against the reference evaluator (and the relational engine).
func runAll(t *testing.T, st *core.Store, tree *xmltree.Node, query string) {
	t.Helper()
	want, err := enginetest.EvalStarts(tree, query)
	if err != nil {
		t.Fatalf("reference eval %s: %v", query, err)
	}
	translators := map[string]translate.Translator{
		"dlabel": translate.Baseline,
		"split":  translate.Split,
		"pushup": translate.PushUp,
		"unfold": translate.Unfold,
	}
	for name, tr := range translators {
		p, err := tr(ctxFor(st), xpath.MustParse(query))
		if err != nil {
			t.Fatalf("%s: translate %s: %v", name, query, err)
		}
		res, err := Execute(nil, st, planner.Fixed(p), core.ExecConfig{})
		if err != nil {
			t.Fatalf("%s: twig execute %s: %v", name, query, err)
		}
		if !enginetest.StartsEqual(res.Starts(), want) {
			t.Errorf("twig/%s: %s\n got %s\nwant %s\nplan:\n%s", name, query,
				enginetest.FormatStarts(res.Starts()), enginetest.FormatStarts(want), p)
		}
		// Cross-check against the relational engine on the same plan.
		rres, err := relengine.Execute(nil, st, planner.Fixed(p), relengine.Options{})
		if err != nil {
			t.Fatalf("%s: relengine on same plan: %v", name, err)
		}
		if !enginetest.StartsEqual(rres.Starts(), res.Starts()) {
			t.Errorf("engines disagree on %s/%s: rel %s vs twig %s", name, query,
				enginetest.FormatStarts(rres.Starts()), enginetest.FormatStarts(res.Starts()))
		}
	}
}

func TestPlaysQueries(t *testing.T) {
	st, tree, err := enginetest.MustBuild(playsDoc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	queries := []string{
		"/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE",                               // QS1 shape
		"/PLAYS/PLAY/EPILOGUE//LINE/STAGEDIR",                             // QS2 shape
		`/PLAYS/PLAY/ACT/SCENE[TITLE="SCENE III. A public place."]//LINE`, // QS3 shape
		"//SCENE//LINE",
		"//SPEECH[SPEAKER]/LINE",
		"//PLAY[EPILOGUE]/TITLE",
		`//PLAY[TITLE="Macbeth"]//SPEAKER`,
		"//LINE",
		"/PLAYS/PLAY[ACT/SCENE/SPEECH[SPEAKER]]/TITLE",
		"//ACT[TITLE and SCENE]/SCENE/TITLE",
		"//STAGEDIR",
		"/PLAYS/*/TITLE",
		"//nosuch",
	}
	for _, q := range queries {
		runAll(t, st, tree, q)
	}
}

// TestRecursiveStacks exercises nested same-tag elements, where stack
// depth exceeds one and ancestor enumeration must respect parent links.
func TestRecursiveStacks(t *testing.T) {
	doc := `<r>
	  <a><a><a><b>x</b></a><b>y</b></a></a>
	  <a><b>z</b></a>
	</r>`
	st, tree, err := enginetest.MustBuild(doc)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, q := range []string{
		"//a//b",
		"//a/b",
		"//a/a//b",
		"//a[a]/b",
		"//a//a//b",
		"/r/a/a/b",
		"//a[b]",
	} {
		runAll(t, st, tree, q)
	}
}

func TestDifferentialRandomTwig(t *testing.T) {
	rnd := rand.New(rand.NewSource(777))
	p := enginetest.DefaultDocParams()
	for docIdx := 0; docIdx < 10; docIdx++ {
		tree := enginetest.RandomDoc(rnd, p)
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qIdx := 0; qIdx < 25; qIdx++ {
			runAll(t, st, tree, enginetest.RandomQuery(rnd, p))
		}
		st.Close()
	}
}

// TestElementsReadAdvantage verifies the paper's Fig. 14(b) effect: the
// BLAS translators read fewer elements than D-labeling on the twig
// engine, because their streams are P-label-selected.
func TestElementsReadAdvantage(t *testing.T) {
	doc := xmltree.New("db")
	for i := 0; i < 60; i++ {
		e := doc.AppendNew("entry")
		p := e.AppendNew("protein")
		p.AppendText("name", "n")
		r := e.AppendNew("ref")
		r.AppendText("name", "m") // inflates the baseline's name stream
		r.AppendText("year", "2001")
	}
	st, err := core.BuildFromTree(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	measure := func(tr translate.Translator, q string) uint64 {
		p, err := tr(ctxFor(st), xpath.MustParse(q))
		if err != nil {
			t.Fatal(err)
		}
		ctx := relstore.NewExecContext()
		if _, err := Execute(ctx, st, planner.Fixed(p), core.ExecConfig{}); err != nil {
			t.Fatal(err)
		}
		return ctx.Visited()
	}
	q := "/db/entry/protein/name"
	base := measure(translate.Baseline, q)
	split := measure(translate.Split, q)
	if split >= base {
		t.Fatalf("split read %d elements >= baseline %d", split, base)
	}
}

func TestEmptyPlan(t *testing.T) {
	st, _, err := enginetest.MustBuild(`<a><b/></a>`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p, err := translate.Split(ctxFor(st), xpath.MustParse("//zzz"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(nil, st, planner.Fixed(p), core.ExecConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Fatal("expected empty result")
	}
}

// TestTwigConcurrentExecutes races many concurrent Execute calls over
// one store (meant for -race): per-query contexts must not interfere,
// and every call must return the answer of a lone call.
func TestTwigConcurrentExecutes(t *testing.T) {
	rnd := rand.New(rand.NewSource(31337))
	p := enginetest.DefaultDocParams()
	tree := enginetest.RandomDoc(rnd, p)
	st, err := core.BuildFromTree(tree, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	type job struct {
		plan *translate.Plan
		want []uint32
	}
	var jobs []job
	for len(jobs) < 4 {
		query := enginetest.RandomQuery(rnd, p)
		tr, _ := translate.ByName("pushup")
		plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse(query))
		if err != nil {
			continue
		}
		res, err := Execute(nil, st, planner.Fixed(plan), core.ExecConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Records) == 0 {
			continue
		}
		jobs = append(jobs, job{plan: plan, want: res.Starts()})
	}

	const goroutines = 6
	const iterations = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				j := jobs[(g+i)%len(jobs)]
				ctx := relstore.NewExecContext()
				res, err := Execute(ctx, st, planner.Fixed(j.plan), core.ExecConfig{})
				if err != nil {
					errs <- err
					return
				}
				if !enginetest.StartsEqual(res.Starts(), j.want) {
					errs <- &mismatchError{}
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent twig execute diverged from a lone one" }

// TestDeepSharedPrefixFold folds leaves whose shared prefix binds more
// than eight nodes, each prefix matching several solutions of the next
// leaf, and checks the result against the reference evaluator and the
// relational engine.
func TestDeepSharedPrefixFold(t *testing.T) {
	rnd := rand.New(rand.NewSource(8))
	doc := xmltree.New("r")
	for a := 0; a < 12; a++ {
		n := doc.AppendNew("a")
		for _, tag := range []string{"b", "c", "d", "e", "f", "g", "h"} {
			n = n.AppendNew(tag)
		}
		for i := 0; i < 4; i++ {
			in := n.AppendNew("i")
			for _, tag := range []string{"j", "k", "l"} {
				for c := rnd.Intn(4); c > 0; c-- {
					in.AppendText(tag, tag)
				}
			}
		}
	}
	st, err := core.BuildFromTree(doc, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for _, query := range []string{"//a/b/c/d/e/f/g/h/i[j]/k", "//a/b/c/d/e/f/g/h/i[j][l]/k"} {
		want, err := enginetest.EvalStarts(doc, query)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) < 20 {
			t.Fatalf("%s: only %d results — fixture too small", query, len(want))
		}
		for _, tr := range []translate.Translator{translate.Baseline, translate.Split} {
			plan, err := tr(ctxFor(st), xpath.MustParse(query))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := relengine.Execute(nil, st, planner.Fixed(plan), relengine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !enginetest.StartsEqual(rel.Starts(), want) {
				t.Fatalf("%s: relational engine disagrees with the reference", query)
			}
			res, err := Execute(nil, st, planner.Fixed(plan), core.ExecConfig{})
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Starts(); !enginetest.StartsEqual(got, want) {
				t.Fatalf("%s: got %s\nwant %s\nplan:\n%s", query,
					enginetest.FormatStarts(got), enginetest.FormatStarts(want), plan)
			}
		}
	}
}

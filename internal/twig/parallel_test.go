package twig

import (
	"math/rand"
	"strings"
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

// execStarts runs a plan at the given parallelism and returns the result
// starts plus the visited-elements and page-read counts.
func execStarts(t *testing.T, st *core.Store, plan *translate.Plan, parallelism int) ([]uint32, uint64, uint64) {
	t.Helper()
	ctx := relstore.NewExecContext()
	res, err := Execute(ctx, st, planner.Fixed(plan), core.ExecConfig{Parallelism: parallelism})
	if err != nil {
		t.Fatalf("Execute(P=%d): %v", parallelism, err)
	}
	return res.Starts(), ctx.Visited(), ctx.PageReads()
}

// TestTwigParallelMatchesSequential pins that Parallelism does not
// change the twig engine's work on randomized documents: for every
// translator and a spread of settings the sweep returns byte-identical
// starts, visits the same elements and reads the same pages.
func TestTwigParallelMatchesSequential(t *testing.T) {
	rnd := rand.New(rand.NewSource(90125))
	p := enginetest.DefaultDocParams()
	for docIdx := 0; docIdx < 6; docIdx++ {
		tree := enginetest.RandomDoc(rnd, p)
		st, err := core.BuildFromTree(tree, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for qIdx := 0; qIdx < 15; qIdx++ {
			query := enginetest.RandomQuery(rnd, p)
			want, err := enginetest.EvalStarts(tree, query)
			if err != nil {
				t.Fatal(err)
			}
			for _, trName := range []string{"dlabel", "split", "pushup", "unfold"} {
				tr, _ := translate.ByName(trName)
				plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse(query))
				if err != nil {
					t.Fatalf("%s/%s: %v", query, trName, err)
				}
				seq, seqVisited, seqReads := execStarts(t, st, plan, 1)
				if !enginetest.StartsEqual(seq, want) {
					t.Fatalf("sequential %s [%s] already wrong: got %s want %s", query, trName,
						enginetest.FormatStarts(seq), enginetest.FormatStarts(want))
				}
				for _, par := range []int{2, 3, 8} {
					got, visited, reads := execStarts(t, st, plan, par)
					if !enginetest.StartsEqual(got, seq) {
						t.Errorf("doc %d %s [%s] P=%d: got %s want %s", docIdx, query, trName, par,
							enginetest.FormatStarts(got), enginetest.FormatStarts(seq))
					}
					if visited != seqVisited || reads != seqReads {
						t.Errorf("doc %d %s [%s] P=%d: visited %d, page reads %d; P=1: %d, %d",
							docIdx, query, trName, par, visited, reads, seqVisited, seqReads)
					}
				}
			}
		}
		st.Close()
	}
}

// TestTwigPartitionBoundaryStraddle checks the sweep's stacks on
// documents whose root-stream elements nest (recursive tags), with
// branch leaves at varying depths near the edges of the nested runs,
// against the reference evaluator at several Parallelism settings.
func TestTwigPartitionBoundaryStraddle(t *testing.T) {
	var b strings.Builder
	// Many top-level <a> runs; every third run nests <a> recursively so
	// top-level boundaries differ from element counts, and <b> leaves sit
	// at varying depths near the run edges.
	b.WriteString("<r>")
	for i := 0; i < 40; i++ {
		switch i % 3 {
		case 0:
			b.WriteString("<a><b>x</b></a>")
		case 1:
			b.WriteString("<a><a><a><b>y</b></a><b>z</b></a></a>")
		default:
			b.WriteString("<a><c/><a><b>w</b><c/></a></a>")
		}
	}
	b.WriteString("</r>")
	st, tree, err := enginetest.MustBuild(b.String())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	for _, query := range []string{
		"//a//b",
		"//a/b",
		"//a[c]//b",
		"//a/a[b]/c",
		"//a[a/b]/b",
		"/r/a//b",
	} {
		want, err := enginetest.EvalStarts(tree, query)
		if err != nil {
			t.Fatal(err)
		}
		for _, trName := range []string{"dlabel", "split", "pushup"} {
			tr, _ := translate.ByName(trName)
			plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse(query))
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 5, 16, 64} {
				got, _, _ := execStarts(t, st, plan, par)
				if !enginetest.StartsEqual(got, want) {
					t.Errorf("%s [%s] P=%d: got %s want %s", query, trName, par,
						enginetest.FormatStarts(got), enginetest.FormatStarts(want))
				}
			}
		}
	}
}

// TestTwigRejectsNegativeParallelism: Execute must reject misuse the
// same way blas.Query does, rather than silently ignoring it.
func TestTwigRejectsNegativeParallelism(t *testing.T) {
	st, _, err := enginetest.MustBuild("<a><b/></a>")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	tr, _ := translate.ByName("split")
	plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse("//b"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Execute(nil, st, planner.Fixed(plan), core.ExecConfig{Parallelism: -1}); err == nil {
		t.Fatal("Execute accepted Parallelism = -1")
	}
}

// TestTwigConcurrentExecutes races many parallel Execute calls over one
// store (meant for -race): per-query contexts must not interfere, and
// every call must return the sequential answer.
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
		res, err := Execute(nil, st, planner.Fixed(plan), core.ExecConfig{Parallelism: 1})
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
				par := []int{1, 2, 4}[i%3]
				ctx := relstore.NewExecContext()
				res, err := Execute(ctx, st, planner.Fixed(j.plan), core.ExecConfig{Parallelism: par})
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

func (*mismatchError) Error() string { return "concurrent twig execute diverged from sequential" }

// TestDeepSharedPrefixFold folds leaves whose shared prefix binds more
// than eight nodes, each prefix matching several solutions of the next
// leaf, and checks the result against the reference evaluator and the
// relational engine at every parallelism, with the same visited count.
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
			_, seqVisited, _ := execStarts(t, st, plan, 1)
			for _, par := range []int{1, 2, 4} {
				got, visited, _ := execStarts(t, st, plan, par)
				if !enginetest.StartsEqual(got, want) {
					t.Fatalf("%s P=%d: got %s\nwant %s\nplan:\n%s", query, par,
						enginetest.FormatStarts(got), enginetest.FormatStarts(want), plan)
				}
				if visited != seqVisited {
					t.Errorf("%s P=%d: visited %d, sequential %d", query, par, visited, seqVisited)
				}
			}
		}
	}
}

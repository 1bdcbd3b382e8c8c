package blas

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/enginetest"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// placementDoc repeats a block with nested a elements — b and c
// children at two depths, and an a under d — often enough that the
// D-joins' inputs pass the partitioning thresholds at P = 2.
func placementDoc() string {
	const block = `<a><a><b>x</b><c>y</c></a><b>z</b><c/></a><a><b>x</b></a><d><a><c>y</c><a><b/></a></a></d>`
	return "<r>" + strings.Repeat(block, 200) + "</r>"
}

// joinChildren returns each fragment's descendant fragments in plan p.
func joinChildren(p *translate.Plan) map[int][]int {
	kids := map[int][]int{}
	for _, j := range p.Joins {
		kids[j.Anc] = append(kids[j.Anc], j.Desc)
	}
	return kids
}

// isDesc reports whether fragment f is some join's descendant side.
func isDesc(p *translate.Plan, f int) bool {
	for _, j := range p.Joins {
		if j.Desc == f {
			return true
		}
	}
	return false
}

// TestReturnFragmentPlacement: the return fragment keeps full records
// while every other fragment binds spans, so each place the return
// fragment can sit in a plan is checked on both engines at P = 1 and
// P = 2 against the reference evaluator, with VisitedElements
// independent of P. Each case first checks that its plan really puts
// the return fragment where the case says.
func TestReturnFragmentPlacement(t *testing.T) {
	doc := placementDoc()
	tree, err := xmltree.ParseString(doc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := BuildFromString(doc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// nonEmpty asserts that a query has answers in the document.
	nonEmpty := func(query string) bool { return len(xpath.Eval(tree, xpath.MustParse(query))) > 0 }

	cases := []struct {
		name, query string
		tr          Translator
		placed      func(p *translate.Plan) bool
	}{
		{"join root", `//a[b]`, TranslatorDLabel, func(p *translate.Plan) bool {
			return !isDesc(p, p.Return) && len(joinChildren(p)[p.Return]) > 0
		}},
		{"chain middle", `/r/a[b="z"]`, TranslatorDLabel, func(p *translate.Plan) bool {
			return isDesc(p, p.Return) && len(joinChildren(p)[p.Return]) > 0
		}},
		{"twig prefix above a branch point", `/r/a[a[b and c]]`, TranslatorDLabel, func(p *translate.Plan) bool {
			kids := joinChildren(p)
			if len(kids[p.Return]) != 1 {
				return false
			}
			for f := kids[p.Return][0]; ; f = kids[f][0] {
				switch len(kids[f]) {
				case 0:
					return false
				case 1:
				default:
					return true
				}
			}
		}},
		// A b under two nested a elements is joined to both: the return
		// column lists its start twice.
		{"duplicate return starts", `//a//b`, TranslatorDLabel, func(p *translate.Plan) bool {
			return isDesc(p, p.Return) && nonEmpty(`//a//a//b`)
		}},
		// The D-join emits rows in descendant order, so the return
		// column, the ancestor side, lists an outer a after the inner a
		// its first b descendant is under: out of start order, and
		// with duplicates. The a fragment is a range over the runs of
		// /r/a, /r/a/a, /r/d/a and /r/d/a/a.
		{"unsorted range return", `//a[//b]`, TranslatorSplit, func(p *translate.Plan) bool {
			return !isDesc(p, p.Return) && p.Fragments[p.Return].Access.Kind == translate.AccessPLabelRange && nonEmpty(`//a[a//b]`)
		}},
	}
	for _, c := range cases {
		phys, err := st.plan(relstore.NewExecContext(), c.query, QueryOptions{Translator: c.tr}, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !c.placed(phys.Logical) {
			t.Fatalf("%s: %s under %s does not place the return fragment as the case needs:\n%s", c.name, c.query, c.tr, phys.Logical)
		}
		want, err := enginetest.EvalStarts(tree, c.query)
		if err != nil {
			t.Fatal(err)
		}
		if len(want) == 0 {
			t.Fatalf("%s: %s has no answers; the case would check nothing", c.name, c.query)
		}
		for _, eng := range []Engine{EngineRelational, EngineTwig} {
			var first *Result
			for _, par := range []int{1, 2} {
				res, err := st.Query(c.query, QueryOptions{Translator: c.tr, Engine: eng, Parallelism: par})
				if err != nil {
					t.Fatalf("%s [%s P=%d]: %v", c.name, eng, par, err)
				}
				got := make([]uint32, len(res.Matches))
				for i, m := range res.Matches {
					got[i] = m.Start
				}
				if !enginetest.StartsEqual(got, want) {
					t.Errorf("%s: %s [%s P=%d] = %s, want %s", c.name, c.query, eng, par, enginetest.FormatStarts(got), enginetest.FormatStarts(want))
				}
				if first == nil {
					first = res
					continue
				}
				if res.Stats.VisitedElements != first.Stats.VisitedElements || !reflect.DeepEqual(res.Matches, first.Matches) {
					t.Errorf("%s [%s]: P=%d visited %d elements and returned %d matches, P=1 %d and %d",
						c.name, eng, par, res.Stats.VisitedElements, len(res.Matches), first.Stats.VisitedElements, len(first.Matches))
				}
			}
		}
	}
}

package blas

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

const catalogDoc = `<catalog>
  <book id="b1">
    <author>Knuth</author>
    <title>The Art of Computer Programming</title>
    <price>199</price>
  </book>
  <book id="b2">
    <author>Date</author>
    <title>An Introduction to Database Systems</title>
    <price>89</price>
  </book>
  <book id="b3">
    <author>Knuth</author>
    <title>Concrete Mathematics</title>
    <price>79</price>
  </book>
</catalog>`

func buildCatalog(t *testing.T) *Store {
	t.Helper()
	st, err := BuildFromString(catalogDoc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestQuickstartFlow(t *testing.T) {
	st := buildCatalog(t)
	res, err := st.Query(`/catalog/book[author="Knuth"]/title`, QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 2 {
		t.Fatalf("got %d matches", len(res.Matches))
	}
	if res.Matches[0].Value != "The Art of Computer Programming" {
		t.Fatalf("first match = %+v", res.Matches[0])
	}
	if res.Matches[0].Tag != "title" {
		t.Fatalf("tag = %s", res.Matches[0].Tag)
	}
	if res.Matches[0].Path != "/catalog/book/title" {
		t.Fatalf("path = %s", res.Matches[0].Path)
	}
	if res.Stats.Translator != TranslatorUnfold { // auto picks Unfold (schema present)
		t.Fatalf("translator = %s", res.Stats.Translator)
	}
}

func TestAllTranslatorEngineCombinations(t *testing.T) {
	st := buildCatalog(t)
	queries := []string{
		"/catalog/book/title",
		"//title",
		`//book[price="79"]/author`,
		"//book/@id",
		"/catalog/*/author",
	}
	for _, q := range queries {
		var want []string
		for _, tr := range []Translator{TranslatorDLabel, TranslatorSplit, TranslatorPushUp, TranslatorUnfold} {
			for _, eng := range []Engine{EngineRelational, EngineTwig} {
				res, err := st.Query(q, QueryOptions{Translator: tr, Engine: eng})
				if err != nil {
					t.Fatalf("%s/%s %s: %v", tr, eng, q, err)
				}
				var got []string
				for _, m := range res.Matches {
					got = append(got, m.Value)
				}
				if want == nil {
					want = got
					continue
				}
				if strings.Join(got, "|") != strings.Join(want, "|") {
					t.Fatalf("%s/%s %s: got %v want %v", tr, eng, q, got, want)
				}
			}
		}
	}
}

func TestExplain(t *testing.T) {
	st := buildCatalog(t)
	ex, err := st.Explain(`/catalog/book[author="Knuth"]/title`, QueryOptions{Translator: TranslatorSplit})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.SQL, "SELECT DISTINCT") {
		t.Fatalf("SQL missing: %s", ex.SQL)
	}
	if !strings.Contains(ex.Algebra, "π_") {
		t.Fatalf("Algebra missing: %s", ex.Algebra)
	}
	if ex.Joins != 2 {
		t.Fatalf("joins = %d", ex.Joins)
	}
	if ex.EqSels+ex.RangeSels != 3 {
		t.Fatalf("selections = %d + %d", ex.EqSels, ex.RangeSels)
	}
}

func TestStats(t *testing.T) {
	st := buildCatalog(t)
	stats := st.Stats()
	// catalog + 3×(book,@id,author,title,price) = 16 nodes
	if stats.Nodes != 16 {
		t.Fatalf("nodes = %d", stats.Nodes)
	}
	if stats.Tags != 6 {
		t.Fatalf("tags = %d", stats.Tags)
	}
	if stats.MaxDepth != 3 {
		t.Fatalf("depth = %d", stats.MaxDepth)
	}
}

func TestPersistentStore(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cat.blas")
	st, err := BuildFromString(catalogDoc, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	res, err := st2.Query("//author", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) != 3 {
		t.Fatalf("matches after reopen = %d", len(res.Matches))
	}
}

func TestQueryErrors(t *testing.T) {
	st := buildCatalog(t)
	if _, err := st.Query("not an xpath", QueryOptions{}); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := st.Query("//x", QueryOptions{Translator: "bogus"}); err == nil {
		t.Fatal("bad translator accepted")
	}
}

func TestExecStatsPopulated(t *testing.T) {
	st := buildCatalog(t)
	if err := st.DropCaches(); err != nil {
		t.Fatal(err)
	}
	res, err := st.Query("//title", QueryOptions{Translator: TranslatorSplit})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.VisitedElements == 0 {
		t.Fatal("visited elements not counted")
	}
	if res.Stats.PageMisses == 0 {
		t.Fatal("cold cache should miss")
	}
	// Elapsed is the full Query latency (from entry, including parse and
	// translate); PlanElapsed is the planning share of it.
	if res.Stats.PlanElapsed <= 0 {
		t.Fatalf("PlanElapsed = %v, want > 0 (clock must start at Query entry)", res.Stats.PlanElapsed)
	}
	if res.Stats.Elapsed < res.Stats.PlanElapsed {
		t.Fatalf("Elapsed %v < PlanElapsed %v", res.Stats.Elapsed, res.Stats.PlanElapsed)
	}
}

func TestGenerateDataset(t *testing.T) {
	var buf bytes.Buffer
	if err := GenerateDataset(&buf, "shakespeare", DatasetOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 100000 {
		t.Fatalf("dataset too small: %d bytes", buf.Len())
	}
	// Generated data must shred cleanly.
	st, err := BuildFromString(buf.String(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, err := st.Query("/PLAYS/PLAY/ACT/SCENE/SPEECH/LINE", QueryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("QS1 returned nothing")
	}
	if err := GenerateDataset(&buf, "nope", DatasetOptions{}); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := BuildFromString("<broken", Options{}); err == nil {
		t.Fatal("malformed doc accepted")
	}
	if _, err := BuildFromFile("/does/not/exist.xml", Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := Open(Options{}); err == nil {
		t.Fatal("Open without dir accepted")
	}
}

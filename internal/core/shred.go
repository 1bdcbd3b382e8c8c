package core

import (
	"fmt"
	"io"
	"os"

	"repro/internal/dlabel"
	"repro/internal/plabel"
	"repro/internal/relstore"
	"repro/internal/sax"
	"repro/internal/schema"
	"repro/internal/xmltree"
)

// The index generator (paper Fig. 6, §4): consume SAX events, assign the
// D-label and P-label of every element and attribute node, collect text
// values, and bulk-load the SP and SD relations.
//
// P-labeling needs the tag universe before the first node is labeled, so
// shredding is a two-pass process: pass 1 collects tags, the schema graph
// and the maximum depth; pass 2 assigns labels. BuildFromTree walks an
// in-memory tree twice; BuildFromFile streams the file twice, keeping
// memory proportional to the record set, not the document.

// BuildFromTree shreds an in-memory document tree into a new store.
func BuildFromTree(root *xmltree.Node, opts Options) (*Store, error) {
	if root == nil {
		return nil, fmt.Errorf("core: nil document")
	}
	// Pass 1: tag universe, schema, depth.
	graph := schema.FromTree(root)
	tags := xmltree.DistinctTags(root)
	scheme, err := plabel.NewScheme(tags)
	if err != nil {
		return nil, err
	}

	// Pass 2: labels.
	sh := newShredder(scheme)
	var walk func(n *xmltree.Node) error
	walk = func(n *xmltree.Node) error {
		if n.IsAttr() {
			return sh.attr(n.Tag, n.Text)
		}
		if err := sh.start(n.Tag); err != nil {
			return err
		}
		if n.Text != "" {
			sh.text(n.Text)
		}
		for _, c := range n.Children {
			if err := walk(c); err != nil {
				return err
			}
		}
		sh.end()
		return nil
	}
	if err := walk(root); err != nil {
		return nil, err
	}
	return finishBuild(sh, graph, opts)
}

// BuildFromReader shreds a document supplied by a re-readable source.
// open is called twice, once per pass.
func BuildFromReader(open func() (io.ReadCloser, error), opts Options) (*Store, error) {
	// Pass 1: tags, schema, depth.
	r1, err := open()
	if err != nil {
		return nil, err
	}
	graph := schema.New()
	var stack []string
	tagSet := map[string]bool{}
	h1 := sax.FuncHandler{
		Start: func(name string, attrs []sax.Attr) error {
			tagSet[name] = true
			if len(stack) == 0 {
				graph.AddRoot(name)
			} else {
				graph.AddEdge(stack[len(stack)-1], name)
			}
			stack = append(stack, name)
			graph.ObserveDepth(len(stack))
			for _, a := range attrs {
				at := "@" + a.Name
				tagSet[at] = true
				graph.AddEdge(name, at)
				graph.ObserveDepth(len(stack) + 1)
			}
			return nil
		},
		End: func(string) error {
			stack = stack[:len(stack)-1]
			return nil
		},
	}
	if err := sax.Parse(r1, h1); err != nil {
		_ = r1.Close()
		return nil, err
	}
	if err := r1.Close(); err != nil {
		return nil, err
	}
	tags := make([]string, 0, len(tagSet))
	for t := range tagSet {
		tags = append(tags, t)
	}
	scheme, err := plabel.NewScheme(tags)
	if err != nil {
		return nil, err
	}

	// Pass 2: labels.
	r2, err := open()
	if err != nil {
		return nil, err
	}
	defer r2.Close()
	sh := newShredder(scheme)
	h2 := sax.FuncHandler{
		Start: func(name string, attrs []sax.Attr) error {
			if err := sh.start(name); err != nil {
				return err
			}
			for _, a := range attrs {
				if err := sh.attr("@"+a.Name, a.Value); err != nil {
					return err
				}
			}
			return nil
		},
		Chars: func(text string) error {
			sh.text(text)
			return nil
		},
		End: func(string) error {
			sh.end()
			return nil
		},
	}
	if err := sax.Parse(r2, h2); err != nil {
		return nil, err
	}
	return finishBuild(sh, graph, opts)
}

// BuildFromFile shreds an XML file into a new store.
func BuildFromFile(path string, opts Options) (*Store, error) {
	return BuildFromReader(func() (io.ReadCloser, error) { return os.Open(path) }, opts)
}

// shredder assigns labels and accumulates records.
type shredder struct {
	scheme  *plabel.Scheme
	dl      *dlabel.Assigner
	pl      *plabel.Labeler
	open    []openElem
	records []relstore.Record
}

type openElem struct {
	tagID  uint32
	start  uint32
	level  uint16
	plabel relstore.Record // partially filled: PLabel only
	text   string
}

func newShredder(scheme *plabel.Scheme) *shredder {
	return &shredder{
		scheme: scheme,
		dl:     dlabel.NewAssigner(),
		pl:     scheme.NewLabeler(),
	}
}

func (s *shredder) start(tag string) error {
	p, err := s.pl.Enter(tag)
	if err != nil {
		return err
	}
	digit, _ := s.scheme.TagDigit(tag)
	start, level := s.dl.Enter()
	s.open = append(s.open, openElem{
		tagID:  uint32(digit),
		start:  start,
		level:  level,
		plabel: relstore.Record{PLabel: p},
	})
	return nil
}

func (s *shredder) text(t string) {
	s.dl.Text()
	top := &s.open[len(s.open)-1]
	if top.text == "" {
		top.text = t
	} else {
		top.text += " " + t
	}
}

func (s *shredder) attr(tag, value string) error {
	p, err := s.pl.Enter(tag)
	if err != nil {
		return err
	}
	s.pl.Leave()
	digit, _ := s.scheme.TagDigit(tag)
	l := s.dl.Attr()
	s.records = append(s.records, relstore.Record{
		PLabel: p,
		TagID:  uint32(digit),
		Start:  l.Start,
		End:    l.End,
		Level:  l.Level,
		Data:   value,
	})
	return nil
}

func (s *shredder) end() {
	top := s.open[len(s.open)-1]
	s.open = s.open[:len(s.open)-1]
	l := s.dl.Leave()
	s.pl.Leave()
	s.records = append(s.records, relstore.Record{
		PLabel: top.plabel.PLabel,
		TagID:  top.tagID,
		Start:  top.start,
		End:    l.End,
		Level:  top.level,
		Data:   top.text,
	})
}

func finishBuild(sh *shredder, graph *schema.Graph, opts Options) (*Store, error) {
	if len(sh.open) != 0 {
		return nil, fmt.Errorf("core: document left %d elements open", len(sh.open))
	}
	spFile, sdFile, err := openFiles(opts, true)
	if err != nil {
		return nil, err
	}
	sp, err := relstore.Build(spFile, relstore.ClusterPLabel, sh.records)
	if err != nil {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: build SP: %w", err)
	}
	sd, err := relstore.Build(sdFile, relstore.ClusterTag, sh.records)
	if err != nil {
		closeBoth(spFile, sdFile)
		return nil, fmt.Errorf("core: build SD: %w", err)
	}

	var edges [][2]string
	for _, p := range graph.Tags() {
		for _, c := range graph.Children(p) {
			edges = append(edges, [2]string{p, c})
		}
	}
	meta := storeMeta{
		Tags:     sh.scheme.Tags(),
		Roots:    graph.Roots(),
		Edges:    edges,
		MaxDepth: graph.MaxDepth(),
		Nodes:    uint64(len(sh.records)),
		Units:    sh.dl.Pos() - 1,
	}
	if opts.Dir != "" {
		if err := saveMeta(opts.Dir, meta); err != nil {
			closeBoth(spFile, sdFile)
			return nil, err
		}
	}
	return newStore(sh.scheme, graph, sp, sd, spFile, sdFile, meta), nil
}

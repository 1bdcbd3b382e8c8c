// Package xmltree provides an in-memory XML document tree.
//
// The tree is BLAS's reference data model: the synthetic data generators
// build trees, the naive XPath evaluator (ground truth for every engine
// test) walks them, and the serializer turns them back into documents for
// the streaming shredder.
//
// Attributes are modeled as child nodes whose tag begins with "@", so that
// element and attribute nodes share one node universe — this matches the
// paper's node accounting (Fig. 12 counts "element and attribute nodes").
package xmltree

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/sax"
)

// Node is an element or attribute node.
type Node struct {
	Tag      string // element tag, or "@name" for an attribute
	Text     string // concatenated trimmed character data (or attribute value)
	Parent   *Node
	Children []*Node // element and attribute children, in document order
}

// IsAttr reports whether n is an attribute node.
func (n *Node) IsAttr() bool { return IsAttrTag(n.Tag) }

// IsAttrTag reports whether tag names an attribute ("@name"). XPath's
// * matches elements only, so every wildcard expansion skips these.
func IsAttrTag(tag string) bool { return strings.HasPrefix(tag, "@") }

// New returns an element node with the given tag.
func New(tag string) *Node { return &Node{Tag: tag} }

// Append adds child to n and returns child.
func (n *Node) Append(child *Node) *Node {
	child.Parent = n
	n.Children = append(n.Children, child)
	return child
}

// AppendNew creates a tagged child, appends and returns it.
func (n *Node) AppendNew(tag string) *Node { return n.Append(New(tag)) }

// AppendText creates a tagged child holding text, appends it, and returns n
// (for chaining sibling fields).
func (n *Node) AppendText(tag, text string) *Node {
	c := n.AppendNew(tag)
	c.Text = text
	return n
}

// SetAttr adds an attribute node. Attribute nodes precede element children
// in document order; SetAttr keeps that invariant.
func (n *Node) SetAttr(name, value string) *Node {
	a := &Node{Tag: "@" + name, Text: value, Parent: n}
	// Insert after the last existing attribute.
	i := 0
	for i < len(n.Children) && n.Children[i].IsAttr() {
		i++
	}
	n.Children = append(n.Children, nil)
	copy(n.Children[i+1:], n.Children[i:])
	n.Children[i] = a
	return n
}

// Level returns the node's level: the root has level 1 (the paper defines
// level as the length of the path from the root).
func (n *Node) Level() int {
	l := 0
	for c := n; c != nil; c = c.Parent {
		l++
	}
	return l
}

// SourcePath returns the tags on the path from the root down to n,
// beginning with the root tag (the paper's SP(n)).
func (n *Node) SourcePath() []string {
	var rev []string
	for c := n; c != nil; c = c.Parent {
		rev = append(rev, c.Tag)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Walk visits n and all its descendants in document order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Stats describes a document's shape, mirroring the paper's Fig. 12.
type Stats struct {
	Nodes int // element + attribute nodes
	Tags  int // distinct tags
	Depth int // longest root-to-leaf path, in nodes
}

// ComputeStats walks the tree rooted at n.
func ComputeStats(n *Node) Stats {
	tags := map[string]bool{}
	var st Stats
	var walk func(m *Node, depth int)
	walk = func(m *Node, depth int) {
		st.Nodes++
		tags[m.Tag] = true
		if depth > st.Depth {
			st.Depth = depth
		}
		for _, c := range m.Children {
			walk(c, depth+1)
		}
	}
	walk(n, 1)
	st.Tags = len(tags)
	return st
}

// DistinctTags returns the sorted set of tags in the tree rooted at n.
func DistinctTags(n *Node) []string {
	set := map[string]bool{}
	n.Walk(func(m *Node) { set[m.Tag] = true })
	tags := make([]string, 0, len(set))
	for t := range set {
		tags = append(tags, t)
	}
	sort.Strings(tags)
	return tags
}

// Parse builds a tree from an XML document.
func Parse(r io.Reader) (*Node, error) {
	var root *Node
	cur := (*Node)(nil)
	h := sax.FuncHandler{
		Start: func(name string, attrs []sax.Attr) error {
			n := New(name)
			for _, a := range attrs {
				n.SetAttr(a.Name, a.Value)
			}
			if cur == nil {
				root = n
			} else {
				cur.Append(n)
			}
			cur = n
			return nil
		},
		Chars: func(text string) error {
			if cur.Text == "" {
				cur.Text = text
			} else {
				cur.Text += " " + text
			}
			return nil
		},
		End: func(name string) error {
			if cur == nil {
				return fmt.Errorf("xmltree: unbalanced end tag </%s>", name)
			}
			cur = cur.Parent
			return nil
		},
	}
	if err := sax.Parse(r, h); err != nil {
		return nil, err
	}
	return root, nil
}

// ParseString is Parse over a string.
func ParseString(s string) (*Node, error) { return Parse(strings.NewReader(s)) }

// WriteXML serializes the tree rooted at n as an XML document.
func WriteXML(w io.Writer, n *Node) error {
	bw := &errWriter{w: w}
	writeNode(bw, n)
	return bw.err
}

// String returns the XML serialization of the tree rooted at n.
func (n *Node) String() string {
	var b strings.Builder
	_ = WriteXML(&b, n)
	return b.String()
}

type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) WriteString(s string) {
	if e.err != nil {
		return
	}
	_, e.err = io.WriteString(e.w, s)
}

func writeNode(w *errWriter, n *Node) {
	w.WriteString("<")
	w.WriteString(n.Tag)
	i := 0
	for ; i < len(n.Children) && n.Children[i].IsAttr(); i++ {
		a := n.Children[i]
		w.WriteString(" ")
		w.WriteString(a.Tag[1:])
		w.WriteString(`="`)
		w.WriteString(escape(a.Text))
		w.WriteString(`"`)
	}
	rest := n.Children[i:]
	if len(rest) == 0 && n.Text == "" {
		w.WriteString("/>")
		return
	}
	w.WriteString(">")
	if n.Text != "" {
		w.WriteString(escape(n.Text))
	}
	for _, c := range rest {
		writeNode(w, c)
	}
	w.WriteString("</")
	w.WriteString(n.Tag)
	w.WriteString(">")
}

var escaper = strings.NewReplacer(
	"&", "&amp;",
	"<", "&lt;",
	">", "&gt;",
	`"`, "&quot;",
)

func escape(s string) string { return escaper.Replace(s) }

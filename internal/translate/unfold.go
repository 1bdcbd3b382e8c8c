package translate

import (
	"fmt"
	"sort"

	"repro/internal/plabel"
	"repro/internal/uint128"
	"repro/internal/xmltree"
	"repro/internal/xpath"
)

// Unfold implements the paper's §4.1.3: the query tree is cut only at
// branching points (and interior value predicates); descendant axes and
// wildcards inside each piece are eliminated by enumerating, over the
// schema graph, every simple path the piece can denote (bounded by the
// observed document depth for recursive schemas). Every piece then
// becomes a union of equality selections on P-labels, and only the
// branch-point D-joins remain — the paper's b-join bound.
//
// When a piece would unfold into more than ctx.MaxUnfoldPaths paths, or a
// join's level gap is ambiguous across the unfolded path combinations,
// Unfold falls back to the Push-up plan (annotated in Plan.Note).
func Unfold(ctx Context, q xpath.Query) (*Plan, error) {
	if ctx.Schema == nil {
		return nil, fmt.Errorf("translate: Unfold requires schema information")
	}
	if q.Root == nil {
		return nil, fmt.Errorf("translate: empty query")
	}
	maxPaths := ctx.MaxUnfoldPaths
	if maxPaths <= 0 {
		maxPaths = DefaultMaxUnfoldPaths
	}
	p := newPlan("unfold", q)
	u := &unfolder{ctx: ctx, plan: p, ret: p.Source.Return(), maxPaths: maxPaths}
	if err := u.emit(p.Source.Root, -1, nil); err != nil {
		if _, ok := err.(fallbackError); ok {
			fb, ferr := PushUp(ctx, q)
			if ferr != nil {
				return nil, ferr
			}
			fb.Translator = "unfold"
			fb.Note = fmt.Sprintf("fell back to push-up: %v", err)
			return fb, nil
		}
		return nil, err
	}
	if !u.retSeen {
		return nil, fmt.Errorf("translate: internal error: return node not assigned a fragment")
	}
	return p, nil
}

// fallbackError marks conditions under which Unfold degrades to Push-up.
type fallbackError struct{ reason string }

func (e fallbackError) Error() string { return e.reason }

type unfolder struct {
	ctx      Context
	plan     *Plan
	ret      *xpath.Node
	retSeen  bool
	maxPaths int
}

type fragStep struct {
	axis xpath.Axis
	tag  string // may be "*"
}

// emit creates the fragment whose leaf is reached from the query root via
// stepsSoFar plus the chain starting at n, then recurses into cuts.
func (u *unfolder) emit(n *xpath.Node, anc int, stepsSoFar []fragStep) error {
	// Collect the chain: Unfold pieces extend through descendant edges
	// and wildcards; only branches, value predicates and path ends cut.
	chain := []*xpath.Node{n}
	leaf := n
	for leaf.Value == nil && len(leaf.Branches) == 0 && leaf.Next != nil {
		leaf = leaf.Next
		chain = append(chain, leaf)
	}
	steps := append(append([]fragStep(nil), stepsSoFar...), stepsOf(chain)...)

	paths, err := u.enumerate(steps)
	if err != nil {
		return err
	}
	f := &Fragment{Value: leaf.Value}
	f.Access, f.Empty, err = u.accessFor(paths)
	if err != nil {
		return err
	}
	id := u.plan.addFragment(f)
	if anc >= 0 {
		join, empty, err := u.joinFor(anc, id)
		if err != nil {
			return err
		}
		if empty {
			f.Empty = true
		} else {
			u.plan.Joins = append(u.plan.Joins, join)
		}
	}
	if leaf == u.ret {
		u.plan.Return = id
		u.retSeen = true
	}
	for _, br := range leaf.Branches {
		if err := u.emit(br, id, steps); err != nil {
			return err
		}
	}
	if leaf.Next != nil {
		return u.emit(leaf.Next, id, steps)
	}
	return nil
}

func stepsOf(chain []*xpath.Node) []fragStep {
	out := make([]fragStep, len(chain))
	for i, c := range chain {
		out[i] = fragStep{axis: c.Axis, tag: c.Tag}
	}
	return out
}

// enumerate expands a step sequence into the absolute simple tag paths it
// denotes under the schema.
func (u *unfolder) enumerate(steps []fragStep) ([][]string, error) {
	g := u.ctx.Schema
	depth := g.MaxDepth()
	var cur [][]string

	// First step starts at the document root.
	first := steps[0]
	switch {
	case first.axis == xpath.Child && first.tag == "*":
		for _, r := range g.Roots() {
			cur = append(cur, []string{r})
		}
	case first.axis == xpath.Child:
		for _, r := range g.Roots() {
			if r == first.tag {
				cur = append(cur, []string{r})
			}
		}
	case first.tag == "*": // //*: any element at all
		for _, r := range g.Roots() {
			cur = append(cur, []string{r})
			chains, err := g.AllChains(r, depth-1, u.maxPaths)
			if err != nil {
				return nil, fallbackError{err.Error()}
			}
			for _, c := range chains {
				if !xmltree.IsAttrTag(c[len(c)-1]) {
					cur = append(cur, append([]string{r}, c...))
				}
			}
		}
	default:
		paths, err := g.PathsFromRoot(first.tag, depth, u.maxPaths)
		if err != nil {
			return nil, fallbackError{err.Error()}
		}
		cur = paths
	}

	for _, st := range steps[1:] {
		var next [][]string
		for _, p := range cur {
			last := p[len(p)-1]
			budget := depth - len(p)
			if budget <= 0 {
				continue
			}
			switch {
			case st.axis == xpath.Child && st.tag == "*":
				for _, c := range g.Children(last) {
					if !xmltree.IsAttrTag(c) {
						next = append(next, extend(p, c))
					}
				}
			case st.axis == xpath.Child:
				if g.HasEdge(last, st.tag) {
					next = append(next, extend(p, st.tag))
				}
			default:
				var chains [][]string
				var err error
				if st.tag == "*" {
					chains, err = g.AllChains(last, budget, u.maxPaths-len(next))
				} else {
					chains, err = g.ChainsBetween(last, st.tag, budget, u.maxPaths-len(next))
				}
				if err != nil {
					return nil, fallbackError{err.Error()}
				}
				for _, c := range chains {
					if st.tag == "*" && xmltree.IsAttrTag(c[len(c)-1]) {
						continue // * matches elements only
					}
					next = append(next, append(append([]string(nil), p...), c...))
				}
			}
			if len(next) > u.maxPaths {
				return nil, fallbackError{fmt.Sprintf("unfolding exceeds %d paths", u.maxPaths)}
			}
		}
		cur = next
	}
	return cur, nil
}

func extend(p []string, tag string) []string {
	return append(append([]string(nil), p...), tag)
}

// accessFor converts a path set into a fragment access: a single path
// becomes an equality selection, several become a plabel set.
func (u *unfolder) accessFor(paths [][]string) (Access, bool, error) {
	type entry struct {
		label uint128.Uint128
		path  []string
	}
	var entries []entry
	seen := map[uint128.Uint128]bool{}
	for _, p := range paths {
		if len(p) > u.ctx.Scheme.MaxDepth() {
			continue // no node can be this deep under the scheme
		}
		l, err := u.ctx.Scheme.LabelPath(p)
		if err != nil {
			// Tag outside the scheme: this path matches nothing.
			continue
		}
		if seen[l] {
			continue
		}
		seen[l] = true
		entries = append(entries, entry{label: l, path: p})
	}
	if len(entries) == 0 {
		return Access{Kind: AccessPLabelSet}, true, nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].label.Less(entries[j].label) })
	if len(entries) == 1 {
		q := plabel.Query{Absolute: true, Tags: entries[0].path}
		rng, err := u.ctx.Scheme.QueryRange(q)
		if err != nil {
			return Access{}, false, err
		}
		return Access{Kind: AccessPLabelEq, Range: rng, Query: q, Labels: []uint128.Uint128{entries[0].label}, Paths: [][]string{entries[0].path}}, false, nil
	}
	a := Access{Kind: AccessPLabelSet}
	for _, e := range entries {
		a.Labels = append(a.Labels, e.label)
		a.Paths = append(a.Paths, e.path)
	}
	return a, false, nil
}

// joinFor builds the D-join between two unfolded fragments. The desc
// fragment's paths all extend anc paths; the level gap is the difference
// in path lengths. If that difference is not unique across valid
// (anc path, desc path) combinations the join cannot be expressed as one
// predicate and Unfold falls back to Push-up.
func (u *unfolder) joinFor(anc, desc int) (Join, bool, error) {
	ancPaths := u.plan.Fragments[anc].Access.Paths
	descPaths := u.plan.Fragments[desc].Access.Paths
	if u.plan.Fragments[anc].Empty || u.plan.Fragments[desc].Empty {
		return Join{}, true, nil
	}
	gaps := map[int]bool{}
	for _, pa := range ancPaths {
		for _, pd := range descPaths {
			if isPrefix(pa, pd) {
				gaps[len(pd)-len(pa)] = true
			}
		}
	}
	switch len(gaps) {
	case 0:
		return Join{}, true, nil // no combination is possible
	case 1:
		for g := range gaps {
			return Join{Anc: anc, Desc: desc, Gap: g, Exact: true}, false, nil
		}
	}
	return Join{}, false, fallbackError{"ambiguous level gap between unfolded fragments"}
}

func isPrefix(pre, full []string) bool {
	if len(pre) >= len(full) {
		return false
	}
	for i := range pre {
		if pre[i] != full[i] {
			return false
		}
	}
	return true
}

// Package planner turns a translated logical plan into an ordered
// physical plan — the logical→physical split of the query path.
//
// Translation (internal/translate) decides WHAT to evaluate: which
// fragment selections and which structural joins. The planner decides in
// what ORDER, using the one statistic BLAS gets for free: a fragment's
// P-label run length is readable from the clustered B+ tree in O(log n)
// before any record is fetched (relstore.Selection.Estimate). Following
// the greedy statistics-free discipline, fragment scans are ordered
// most-selective-first and the join tree is expanded greedily from its
// root, always picking the frontier edge whose descendant fragment has
// the smallest estimate — so the join order stays a bound tree (each
// join's ancestor already joined), which is exactly the invariant both
// engines require.
//
// Because a zero estimate is definitive (see pbtree.EstimateRange), the
// planner can also prove a plan empty before execution: Physical.
// KnownEmpty short-circuits both engines with zero further page reads.
//
// # Plan reuse
//
// A *Physical is immutable once Plan returns it, like the *translate.
// Plan it wraps: engines only read it, so one physical plan may be
// executed any number of times, concurrently, on either engine. This is
// what blas.PreparedQuery and the blasd plan cache store. The estimates
// (and therefore the chosen order and any KnownEmpty proof) were read
// from one store's indexes, so a physical plan is only valid against the
// store that planned it — cache layers key plans by store generation for
// exactly this reason. The same holds for the run positions the probes
// read: the plan keeps each fragment's probed selection, whose runs
// start where the probe found them, so no execution seeks a probed run
// again. The plan also keeps the store it probed, and opens its
// selections only on that store (see Physical.Selection).
package planner

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/relstore"
	"repro/internal/translate"
)

// Options configures planning.
type Options struct {
	// NoReorder skips the selectivity probes and keeps the translator's
	// fixed order — the A/B escape hatch behind blasquery -no-reorder.
	NoReorder bool
}

// Physical is an ordered physical plan: the logical plan plus the
// execution order both engines follow. Immutable after Plan returns.
type Physical struct {
	// Logical is the translated plan this order was derived from.
	Logical *translate.Plan
	// Scans lists every fragment id in scan order (most selective
	// first; translation order when not reordered).
	Scans []int
	// Joins holds the logical plan's joins in execution order. The
	// order is always a bound tree: each join's Anc fragment is the
	// root or a prior join's endpoint.
	Joins []translate.Join
	// Est holds per-fragment cardinality estimates indexed by fragment
	// id; nil when planning ran with NoReorder. A zero entry is a
	// proof of emptiness, not an estimate. The estimates decide the
	// order and are rendered by String; engines read the probes
	// themselves through Selection.
	Est []uint64
	// KnownEmpty reports that the plan can bind nothing — statically
	// (translate marked a fragment empty) or proven by a probe.
	KnownEmpty bool
	// EmptyFragment is the fragment a probe proved empty (-1 if none);
	// set only when KnownEmpty came from a probe rather than a static
	// translate mark.
	EmptyFragment int
	// Reordered reports whether greedy ordering ran (false for Fixed
	// and NoReorder plans).
	Reordered bool

	// sels holds each fragment's probed selection by fragment id, and
	// store the store probed; both nil when the plan was not probed.
	sels  []relstore.Selection
	store *core.Store
}

// Selection returns fragment f's access path for an execution on st:
// the selection the planner probed, whose probed runs start at the
// positions the probe read, when the plan was probed on st; otherwise
// st.Select(f), whose runs seek their own starts.
func (p *Physical) Selection(st *core.Store, f *translate.Fragment) relstore.Selection {
	if p.sels != nil && p.store == st {
		return p.sels[f.ID]
	}
	return st.Select(f)
}

// ProbedEmpty reports whether emptiness was proven by a planner probe
// (as opposed to statically by translation). Engines count this as an
// early termination: scan and join work was provably skipped.
func (p *Physical) ProbedEmpty() bool { return p.KnownEmpty && p.EmptyFragment >= 0 }

// Fixed wraps a logical plan in translation order, without probing the
// store: scans run in fragment-id order and joins exactly as translated.
// This is the pre-planner behavior, kept for A/B comparison and for
// tests that execute hand-built plans.
func Fixed(lp *translate.Plan) *Physical {
	scans := make([]int, len(lp.Fragments))
	for i := range scans {
		scans[i] = i
	}
	return &Physical{
		Logical:       lp,
		Scans:         scans,
		Joins:         lp.Joins,
		KnownEmpty:    lp.Empty(),
		EmptyFragment: -1,
	}
}

// Plan orders lp for execution against st. Probe page reads are
// accounted to ctx (nil discards them), so planning cost is visible in
// the same per-query metrics as execution.
func Plan(ctx *relstore.ExecContext, st *core.Store, lp *translate.Plan, opts Options) (*Physical, error) {
	if opts.NoReorder || lp.Empty() {
		return Fixed(lp), nil
	}

	est := make([]uint64, len(lp.Fragments))
	sels := make([]relstore.Selection, len(lp.Fragments))
	for _, f := range lp.Fragments {
		// A zero estimate is exact unless extrapolated (see
		// relstore.Selection.Estimate).
		sel, e, provable, err := st.Select(f).Estimate(ctx)
		if err != nil {
			return nil, fmt.Errorf("planner: fragment %d: %w", f.ID, err)
		}
		est[f.ID], sels[f.ID] = e, sel
		if e == 0 && provable {
			// Probe-proven empty fragment: every join is an inner join,
			// so the whole plan is empty. Keep the fixed order (it will
			// not run) and let the engines short-circuit.
			p := Fixed(lp)
			p.Est = est
			p.KnownEmpty = true
			p.EmptyFragment = f.ID
			p.Reordered = true
			return p, nil
		}
		if e == 0 {
			est[f.ID] = 1 // not provable: keep it orderable but non-zero
		}
	}

	p := &Physical{
		Logical:       lp,
		Scans:         orderScans(lp, est),
		Joins:         orderJoins(lp, est),
		Est:           est,
		EmptyFragment: -1,
		Reordered:     true,
		sels:          sels,
		store:         st,
	}
	return p, nil
}

// orderScans returns fragment ids by ascending estimate (ties in id
// order, so the order is deterministic).
func orderScans(lp *translate.Plan, est []uint64) []int {
	scans := make([]int, len(lp.Fragments))
	for i := range scans {
		scans[i] = i
	}
	sort.SliceStable(scans, func(a, b int) bool {
		if est[scans[a]] != est[scans[b]] {
			return est[scans[a]] < est[scans[b]]
		}
		return scans[a] < scans[b]
	})
	return scans
}

// orderJoins greedily expands the join tree from its root, always taking
// the frontier edge (ancestor already bound) whose descendant has the
// smallest estimate; ties fall back to translation order. If the joins
// do not form a single-rooted tree (which both engines reject anyway),
// the translated order is returned unchanged so error behavior is
// identical with and without the planner.
func orderJoins(lp *translate.Plan, est []uint64) []translate.Join {
	if len(lp.Joins) <= 1 {
		return lp.Joins
	}
	// Find the root: a fragment that appears as an ancestor (or is the
	// return fragment) and never as a descendant.
	isDesc := map[int]bool{}
	for _, j := range lp.Joins {
		if isDesc[j.Desc] {
			return lp.Joins // two parents: not a tree
		}
		isDesc[j.Desc] = true
	}
	root := -1
	for _, j := range lp.Joins {
		if !isDesc[j.Anc] {
			if root != -1 && root != j.Anc {
				return lp.Joins // multiple roots
			}
			root = j.Anc
		}
	}
	if root == -1 {
		return lp.Joins // cyclic
	}

	bound := map[int]bool{root: true}
	used := make([]bool, len(lp.Joins))
	out := make([]translate.Join, 0, len(lp.Joins))
	for len(out) < len(lp.Joins) {
		pick := -1
		for i, j := range lp.Joins {
			if used[i] || !bound[j.Anc] {
				continue
			}
			if pick == -1 || est[j.Desc] < est[lp.Joins[pick].Desc] {
				pick = i
			}
		}
		if pick == -1 {
			return lp.Joins // disconnected: keep translated order
		}
		used[pick] = true
		bound[lp.Joins[pick].Desc] = true
		out = append(out, lp.Joins[pick])
	}
	return out
}

// String renders the physical order for Explain output: scans with
// their estimates, then the join order.
func (p *Physical) String() string {
	var b strings.Builder
	mode := "fixed"
	if p.Reordered {
		mode = "greedy"
	}
	fmt.Fprintf(&b, "order[%s]", mode)
	if p.KnownEmpty {
		if p.EmptyFragment >= 0 {
			fmt.Fprintf(&b, " empty (fragment F%d proven empty by probe)", p.EmptyFragment)
		} else {
			b.WriteString(" empty (static)")
		}
		b.WriteString("\n")
		return b.String()
	}
	b.WriteString("\n")
	for _, id := range p.Scans {
		fmt.Fprintf(&b, "  scan F%d", id)
		if p.Est != nil {
			fmt.Fprintf(&b, " (est %d)", p.Est[id])
		}
		b.WriteString("\n")
	}
	for _, j := range p.Joins {
		fmt.Fprintf(&b, "  join F%d contains F%d", j.Anc, j.Desc)
		if p.Est != nil {
			fmt.Fprintf(&b, " (est %d)", p.Est[j.Desc])
		}
		b.WriteString("\n")
	}
	return b.String()
}

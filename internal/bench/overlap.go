package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// Overlap prints a P=1 versus P=GOMAXPROCS comparison for the
// relational engine, whose D-joins Parallelism splits, on the tree
// queries QA2/QA3 at the given scale factor. Every measurement is
// cold-cache and repeated h.Repeats times (trimmed mean); the parallel
// run's result set is verified identical to the sequential one before
// anything is printed.
func (h *Harness) Overlap(w io.Writer, factor int) error {
	st, err := h.Store("auction", factor)
	if err != nil {
		return err
	}
	maxP := runtime.GOMAXPROCS(0)
	fmt.Fprintf(w, "Engine overlap: auction x%d, P=1 vs P=%d (cold cache, trimmed mean of %d)\n",
		factor, maxP, h.Repeats)
	fmt.Fprintf(w, "%-8s %-10s %-6s %12s %12s %8s\n", "query", "engine", "tr", "P=1", fmt.Sprintf("P=%d", maxP), "speedup")
	for _, qn := range []string{"QA2", "QA3"} {
		plan, err := overlapPlan(st, qn)
		if err != nil {
			return err
		}
		seq, seqStarts, err := h.overlapMeasure(st, plan, qn, factor, 1)
		if err != nil {
			return err
		}
		par, parStarts, err := h.overlapMeasure(st, plan, qn, factor, maxP)
		if err != nil {
			return err
		}
		if !startsEqual(seqStarts, parStarts) {
			return fmt.Errorf("bench: %s: parallel result (%d) != sequential (%d)",
				qn, len(parStarts), len(seqStarts))
		}
		h.Record(seq)
		h.Record(par)
		speedup := float64(seq.Elapsed) / float64(par.Elapsed)
		fmt.Fprintf(w, "%-8s %-10s %-6s %12s %12s %7.2fx\n", qn, "relational", "pushup", seq.Elapsed, par.Elapsed, speedup)
	}
	return nil
}

func overlapPlan(st *core.Store, queryName string) (*translate.Plan, error) {
	tr, err := translate.ByName("pushup")
	if err != nil {
		return nil, err
	}
	q := xpath.MustParse(Fig10Queries[queryName])
	return tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, StripValues(q))
}

// overlapMeasure times repeated cold-cache relational executions of
// plan at one parallelism, returning the full measurement (trimmed mean
// latency plus the last repetition's execution statistics) and the
// result starts.
func (h *Harness) overlapMeasure(st *core.Store, plan *translate.Plan, queryName string, factor, parallelism int) (Measurement, []uint32, error) {
	repeats := h.Repeats
	if repeats < 1 {
		repeats = 1
	}
	m := Measurement{
		Query: queryName, Dataset: "auction", Factor: factor,
		Translator: "pushup", Engine: "relational", Joins: plan.NumJoins(),
		Parallelism: parallelism,
	}
	var starts []uint32
	times := make([]time.Duration, 0, repeats)
	// Fixed order on purpose: this figure isolates parallelism, so the
	// scan/join order must not vary with the planner's estimates.
	phys := planner.Fixed(plan)
	for i := 0; i < repeats; i++ {
		if err := st.DropCaches(); err != nil {
			return Measurement{}, nil, err
		}
		ctx := relstore.NewExecContext()
		begin := time.Now()
		res, err := relengine.Execute(ctx, st, phys, relengine.Options{ExecConfig: core.ExecConfig{Parallelism: parallelism}})
		if err != nil {
			return Measurement{}, nil, err
		}
		starts = res.Starts()
		times = append(times, time.Since(begin))
		m.Visited = ctx.Visited()
		m.PageReads = ctx.PageReads()
		m.PageMisses = ctx.PageMisses()
		m.Results = len(starts)
	}
	m.Elapsed = trimmedMean(times)
	return m, starts, nil
}

func startsEqual(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

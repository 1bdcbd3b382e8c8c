package bench

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/xpath"
)

// SkewedQuery is the plan-quality workload on the skewed corpus: the
// val fragment holds 3 records against ~4000 item and id records, the
// decoy value blocks an outright emptiness proof, and the tiny scan
// filters to nothing — fixed order pays both huge scans before finding
// that out, greedy order never starts them.
var SkewedQuery = `//item[id][val="` + datagen.DecoyVal + `"]`

// PlanFig compares the translator's fixed order against the physical
// planner's greedy selectivity order — cold-cache page reads (probes
// included on the greedy side) and latency — on a uniform corpus
// (auction, where ordering barely matters) and the skewed corpus (where
// it decides the query). The mode is encoded in the trajectory's
// translator field ("pushup+fixed" / "pushup+greedy") so BENCH_plan.json
// flows through the existing schema unchanged.
func (h *Harness) PlanFig(w io.Writer) error {
	workload := []struct {
		dataset, queryName, query string
	}{
		{"auction", "QA2", Fig10Queries["QA2"]},
		{datagen.NameSkewed, "SKEW", SkewedQuery},
	}
	fmt.Fprintf(w, "Plan quality: fixed vs greedy order (relational engine, pushup, cold cache, trimmed mean of %d)\n", h.Repeats)
	fmt.Fprintf(w, "%-8s %-10s %-14s %12s %12s %10s\n", "query", "dataset", "order", "elapsed", "page reads", "results")
	for _, wk := range workload {
		var reads [2]uint64
		for i, noReorder := range []bool{true, false} {
			m, err := h.planMeasure(wk.dataset, wk.queryName, wk.query, noReorder)
			if err != nil {
				return err
			}
			h.Record(m)
			reads[i] = m.PageReads
			fmt.Fprintf(w, "%-8s %-10s %-14s %12s %12d %10d\n",
				m.Query, m.Dataset, m.Translator, m.Elapsed, m.PageReads, m.Results)
		}
		if reads[1] < reads[0] {
			fmt.Fprintf(w, "%-8s %-10s greedy saved %d page reads (%.1f%%)\n",
				"", "", reads[0]-reads[1], 100*float64(reads[0]-reads[1])/float64(reads[0]))
		}
	}
	return nil
}

// planMeasure times repeated cold-cache runs of one query in one
// ordering mode on the relational engine. Physical planning happens
// inside the timed window, so the greedy side's probe page reads count
// against it.
func (h *Harness) planMeasure(dataset, queryName, query string, noReorder bool) (Measurement, error) {
	st, err := h.Store(dataset, 1)
	if err != nil {
		return Measurement{}, err
	}
	tr, err := translate.ByName("pushup")
	if err != nil {
		return Measurement{}, err
	}
	lp, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, xpath.MustParse(query))
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: translate %s: %w", queryName, err)
	}
	mode := "greedy"
	if noReorder {
		mode = "fixed"
	}
	repeats := h.Repeats
	if repeats < 1 {
		repeats = 1
	}
	m := Measurement{
		Query: queryName, Dataset: dataset, Factor: 1,
		Translator: "pushup+" + mode, Engine: "relational", Joins: lp.NumJoins(),
	}
	times := make([]time.Duration, 0, repeats)
	for i := 0; i < repeats; i++ {
		if err := st.DropCaches(); err != nil {
			return Measurement{}, err
		}
		ctx := relstore.NewExecContext()
		begin := time.Now()
		phys, err := planner.Plan(ctx, st, lp, planner.Options{NoReorder: noReorder})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: plan %s/%s: %w", queryName, mode, err)
		}
		arena := core.NewArena()
		res, err := relengine.Run(ctx, arena, st, phys)
		if err != nil {
			arena.Release()
			return Measurement{}, fmt.Errorf("bench: %s/%s: %w", queryName, mode, err)
		}
		times = append(times, time.Since(begin))
		m.Visited = ctx.Visited()
		m.PageReads = ctx.PageReads()
		m.PageMisses = ctx.PageMisses()
		m.Results = res.Return.Len()
		arena.Release()
	}
	m.Elapsed = trimmedMean(times)
	return m, nil
}

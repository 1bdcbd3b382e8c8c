package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/planner"
	"repro/internal/relengine"
	"repro/internal/relstore"
	"repro/internal/translate"
	"repro/internal/twig"
	"repro/internal/xpath"
)

// Harness owns the stores for the experiment suite, building and caching
// one per (data set, scale factor).
type Harness struct {
	// Repeats is the number of cold-cache repetitions per measurement;
	// the paper repeats 10 times and averages after discarding min and
	// max (§5.1). Values below 3 skip the discard.
	Repeats int
	// PoolPages is the buffer pool size per relation (0 = pager default).
	PoolPages int
	// Seed feeds the data generators.
	Seed int64
	// NoReorder skips the physical planner's greedy ordering, running the
	// translator's fixed order — the baseline side of the plan-quality
	// figure. Default false matches production (greedy).
	NoReorder bool

	stores       map[string]*core.Store
	measurements []Measurement
}

// New returns a harness with the paper's measurement defaults.
func New() *Harness {
	return &Harness{Repeats: 3, Seed: 1, stores: map[string]*core.Store{}}
}

// Close releases every cached store.
func (h *Harness) Close() {
	for k, st := range h.stores {
		_ = st.Close()
		delete(h.stores, k)
	}
}

// Store returns the store for a data set at a scale factor, building it
// on first use.
func (h *Harness) Store(dataset string, factor int) (*core.Store, error) {
	key := fmt.Sprintf("%s@%d", dataset, factor)
	if st, ok := h.stores[key]; ok {
		return st, nil
	}
	tree, err := datagen.ByName(dataset, datagen.Options{Seed: h.Seed, Factor: factor})
	if err != nil {
		return nil, err
	}
	st, err := core.BuildFromTree(tree, core.Options{PoolPages: h.PoolPages})
	if err != nil {
		return nil, err
	}
	h.stores[key] = st
	return st, nil
}

// Measurement is one (query, translator, engine) data point.
type Measurement struct {
	Query      string
	Dataset    string
	Factor     int
	Translator string
	Engine     string // "relational" or "twig"
	Elapsed    time.Duration
	Visited    uint64 // elements read (Figs. 14-18 (b) panels)
	PageReads  uint64 // buffer pool requests (incl. planner probes)
	PageMisses uint64 // disk accesses
	Results    int
	Joins      int
}

// Record appends a measurement to the harness's trajectory log. Run
// calls it for every data point it produces, so a figure's
// measurements can be exported (see Trajectory) after its table prints.
func (h *Harness) Record(m Measurement) { h.measurements = append(h.measurements, m) }

// Measurements returns every measurement recorded since the last reset,
// in execution order.
func (h *Harness) Measurements() []Measurement { return h.measurements }

// ResetMeasurements clears the trajectory log, typically between
// figures.
func (h *Harness) ResetMeasurements() { h.measurements = nil }

// Run executes one measurement: repeated cold-cache executions, averaged
// with min and max discarded (when Repeats >= 3), exactly as §5.1
// describes.
func (h *Harness) Run(dataset string, factor int, queryName, query, translator, engine string, stripValues bool) (Measurement, error) {
	st, err := h.Store(dataset, factor)
	if err != nil {
		return Measurement{}, err
	}
	q, err := xpath.Parse(query)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: %s: %w", queryName, err)
	}
	if stripValues {
		q = StripValues(q)
	}
	tr, err := translate.ByName(translator)
	if err != nil {
		return Measurement{}, err
	}
	plan, err := tr(translate.Context{Scheme: st.Scheme(), Schema: st.Schema()}, q)
	if err != nil {
		return Measurement{}, fmt.Errorf("bench: translate %s/%s: %w", queryName, translator, err)
	}

	repeats := h.Repeats
	if repeats < 1 {
		repeats = 1
	}
	times := make([]time.Duration, 0, repeats)
	m := Measurement{
		Query: queryName, Dataset: dataset, Factor: factor,
		Translator: translator, Engine: engine, Joins: plan.NumJoins(),
	}
	for i := 0; i < repeats; i++ {
		if err := st.DropCaches(); err != nil {
			return Measurement{}, err
		}
		ctx := relstore.NewExecContext()
		begin := time.Now()
		// Physical planning runs inside the cold-cache window so the
		// planner's probe page reads are part of the measured cost.
		phys, err := planner.Plan(ctx, st, plan, planner.Options{NoReorder: h.NoReorder})
		if err != nil {
			return Measurement{}, fmt.Errorf("bench: plan %s/%s: %w", queryName, translator, err)
		}
		arena := core.NewArena()
		var res *core.Result
		switch engine {
		case "twig":
			res, err = twig.Run(ctx, arena, st, phys)
		default:
			res, err = relengine.Run(ctx, arena, st, phys)
		}
		if err != nil {
			arena.Release()
			return Measurement{}, fmt.Errorf("bench: %s/%s %s: %w", queryName, translator, engine, err)
		}
		times = append(times, time.Since(begin))
		m.Visited = ctx.Visited()
		m.PageReads = ctx.PageReads()
		m.PageMisses = ctx.PageMisses()
		m.Results = res.Return.Len()
		arena.Release()
	}
	m.Elapsed = trimmedMean(times)
	h.Record(m)
	return m, nil
}

// trimmedMean averages after discarding the minimum and maximum (with 3+
// samples), following §5.1.
func trimmedMean(ts []time.Duration) time.Duration {
	if len(ts) == 0 {
		return 0
	}
	if len(ts) < 3 {
		var sum time.Duration
		for _, t := range ts {
			sum += t
		}
		return sum / time.Duration(len(ts))
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	var sum time.Duration
	for _, t := range ts[1 : len(ts)-1] {
		sum += t
	}
	return sum / time.Duration(len(ts)-2)
}

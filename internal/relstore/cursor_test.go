package relstore

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/pager"
	"repro/internal/uint128"
)

// plabelRun returns the run decoder of P-label p on an SP relation.
func plabelRun(r *Relation, ctx *ExecContext, p uint128.Uint128) *heapRunIter {
	h := heapRunIter{r: r, ctx: ctx, plabel: p}
	h.seek()
	return &h
}

// tagRun returns the run decoder of a tag on an SD relation.
func tagRun(r *Relation, ctx *ExecContext, tag uint32) *heapRunIter {
	h := heapRunIter{r: r, ctx: ctx, tagID: tag}
	h.seek()
	return &h
}

// exact returns the cursor over P-label p's records, unfiltered.
func exact(r *Relation, ctx *ExecContext, p uint128.Uint128) *Cursor {
	return r.ScanPLabels(ctx, []uint128.Uint128{p}, nil, 0)
}

// tagged returns the cursor over a tag's records, unfiltered.
func tagged(r *Relation, ctx *ExecContext, tag uint32) *Cursor {
	return r.ScanTags(ctx, []uint32{tag}, nil, 0)
}

// collectRun drains a run decoder in batches of batchSize records
// (BatchSize when batchSize is 0).
func collectRun(h *heapRunIter, batchSize int) ([]Record, error) {
	if batchSize <= 0 {
		batchSize = BatchSize
	}
	var out []Record
	buf := make([]Record, batchSize)
	for {
		n, err := h.NextBatch(buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return out, nil
		}
		out = append(out, buf[:n]...)
	}
}

// drainCursor returns a cursor's records, read through Drain.
func drainCursor(c *Cursor) ([]Record, error) {
	var out []Record
	err := c.Drain(func(recs []Record) { out = append(out, recs...) })
	return out, err
}

// cursorCorpus builds records with unique starts over P-labels 1..12
// but 6 and tags 1..8 but 4, skewed so that the first labels and tags
// span several heap pages. A block of records of P-label 1 and tag 1
// with value "skip" at level 4 fills whole pages of both relations
// that a value or level filter empties.
func cursorCorpus(rng *rand.Rand) []Record {
	values := []string{"a", "b", "", "a much longer value that pushes records across pages"}
	var recs []Record
	start := uint32(1)
	for i := 0; i < 6000; i++ {
		rec := Record{
			PLabel: uint128.From64(uint64(1 + min(rng.Intn(16), rng.Intn(16), 11))),
			TagID:  uint32(1 + min(rng.Intn(10), 7)),
			Start:  start,
			End:    start + uint32(rng.Intn(50)),
			Level:  uint16(1 + rng.Intn(3)),
			Data:   values[rng.Intn(len(values))],
		}
		if rec.PLabel == uint128.From64(6) {
			rec.PLabel = uint128.From64(7)
		}
		if rec.TagID == 4 {
			rec.TagID = 5
		}
		if i >= 2000 && i < 3500 {
			rec.PLabel, rec.TagID, rec.Level, rec.Data = uint128.From64(1), 1, 4, "skip"
		}
		recs = append(recs, rec)
		start += 1 + uint32(rng.Intn(3))
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// heldAtPeak is the most buffers a cursor over runs holds at once when
// nonEmpty[i] says whether run i has a record that passes its filter:
// open gives each run a buffer in turn and takes back at once the
// buffer of a run with none, and a run keeps its buffer until it is
// exhausted.
func heldAtPeak(nonEmpty []bool) int {
	peak, held := 0, 0
	for _, ne := range nonEmpty {
		peak = max(peak, held+1)
		if ne {
			held++
		}
	}
	return peak
}

// TestCursorMatchesReference drives cursors over random run sets of
// both clusterings — no run, one run, many runs, runs spanning pages,
// runs of absent keys, pages whose every record a filter drops — under
// value and level filters, through Head/Advance and through Drain. A
// cursor must return exactly the start-sorted, filtered records of its
// runs; count as visited every record of its runs; make the same page
// requests whatever its filter; read nothing before its first Head or
// after its end; and give each run's pooled buffer back exactly once.
func TestCursorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := cursorCorpus(rng)
	sp := buildT(t, ClusterPLabel, recs)
	sd := buildT(t, ClusterTag, recs)
	for _, rel := range []*Relation{sp, sd} {
		if pages := rel.meta.heapLast - rel.meta.heapFirst + 1; pages < 4 {
			t.Fatalf("%s: %d heap pages; the corpus must span several", rel.Kind(), pages)
		}
	}
	a, empty, long := "a", "", "skip"
	filters := []struct {
		value *string
		level uint16
	}{{nil, 0}, {&a, 0}, {&empty, 0}, {nil, 2}, {&a, 3}, {&long, 4}, {nil, 4}}

	for trial := 0; trial < 200; trial++ {
		rel := sp
		if trial%2 == 1 {
			rel = sd
		}
		// 0, 1 or many runs, with keys absent from the relation before,
		// between and after the present ones among them.
		space, keyOf := 14, func(r *Record) uint64 { return r.PLabel.Lo }
		if rel == sd {
			space, keyOf = 10, func(r *Record) uint64 { return uint64(r.TagID) }
		}
		nkeys := []int{0, 1, 1 + rng.Intn(space)}[rng.Intn(3)]
		var labels []uint128.Uint128
		var tags []uint32
		inRun := map[uint64]int{} // key -> run index
		for i, k := range rng.Perm(space)[:nkeys] {
			inRun[uint64(k)] = i
			labels = append(labels, uint128.From64(uint64(k)))
			tags = append(tags, uint32(k))
		}
		open := func(ctx *ExecContext, value *string, level uint16) *Cursor {
			if rel == sd {
				return rel.ScanTags(ctx, tags, value, level)
			}
			return rel.ScanPLabels(ctx, labels, value, level)
		}
		var selected []Record
		for _, r := range recs {
			if _, ok := inRun[keyOf(&r)]; ok {
				selected = append(selected, r)
			}
		}
		selected = sortedByStart(selected)

		var unfilteredReads uint64
		for fi, f := range filters {
			name := fmt.Sprintf("trial %d %s %d runs filter %d", trial, rel.Kind(), len(inRun), fi)
			pass := func(r *Record) bool {
				return (f.value == nil || r.Data == *f.value) && (f.level == 0 || r.Level == f.level)
			}
			want := filterRecs(selected, pass)
			nonEmpty := make([]bool, len(inRun))
			for i := range want {
				nonEmpty[inRun[keyOf(&want[i])]] = true
			}

			// Head/Advance, from an empty pool.
			EmptyBatchPool()
			ctx := NewExecContext()
			c := open(ctx, f.value, f.level)
			if c.KnownEmpty() != (len(inRun) == 0) {
				t.Fatalf("%s: KnownEmpty %v", name, c.KnownEmpty())
			}
			if ctx.PageReads() != 0 {
				t.Fatalf("%s: opening the cursor made %d page requests before its first Head", name, ctx.PageReads())
			}
			var got []Record
			for h := c.Head(); h != nil; h = c.Head() {
				got = append(got, *h)
				c.Advance()
			}
			if c.Err() != nil {
				t.Fatalf("%s: %v", name, c.Err())
			}
			if !recordsEqual(got, want) {
				t.Fatalf("%s: cursor returned %d records, want %d in start order", name, len(got), len(want))
			}
			if ctx.Visited() != uint64(len(selected)) {
				t.Fatalf("%s: visited %d, want the %d records of the runs", name, ctx.Visited(), len(selected))
			}
			if fi == 0 {
				unfilteredReads = ctx.PageReads()
			} else if ctx.PageReads() != unfilteredReads {
				t.Fatalf("%s: %d page requests, %d without a filter", name, ctx.PageReads(), unfilteredReads)
			}
			reads, visited := ctx.PageReads(), ctx.Visited()
			for range 3 {
				if c.Head() != nil {
					t.Fatalf("%s: a head past the end", name)
				}
			}
			if ctx.PageReads() != reads || ctx.Visited() != visited {
				t.Fatalf("%s: Head past the end read again", name)
			}
			if held, peak := IdleBatches(), heldAtPeak(nonEmpty); held != peak {
				t.Fatalf("%s: %d buffers back in the pool, want the %d held at the peak", name, held, peak)
			}

			// Drain, through the same pool.
			dctx := NewExecContext()
			got, err := drainCursor(open(dctx, f.value, f.level))
			if err != nil {
				t.Fatalf("%s: drain: %v", name, err)
			}
			if !recordsEqual(got, want) || dctx.Visited() != visited || dctx.PageReads() != reads {
				t.Fatalf("%s: Drain returned %d records (visited %d, %d page requests), want %d (%d, %d)",
					name, len(got), dctx.Visited(), dctx.PageReads(), len(want), visited, reads)
			}
			if held := IdleBatches(); held != heldAtPeak(nonEmpty) {
				t.Fatalf("%s: Drain left %d buffers in the pool, want %d", name, held, heldAtPeak(nonEmpty))
			}
		}
	}
}

// TestCursorRunsInSelectionOrder: a cursor's runs may come in any key
// order and overlap in start ranges arbitrarily; the merge must still
// be by start, not by the order of the selection.
func TestCursorRunsInSelectionOrder(t *testing.T) {
	var recs []Record
	for p := 0; p < 5; p++ {
		for k := 0; k < 300; k++ {
			s := uint32(5*k + p + 1) // round-robin starts across the labels
			recs = append(recs, Record{PLabel: u(uint64(p)), TagID: 1, Start: s, End: 10000 - s, Level: 2})
		}
	}
	r := buildT(t, ClusterPLabel, recs)
	labels := []uint128.Uint128{u(3), u(0), u(4), u(1)}
	got, err := drainCursor(r.ScanPLabels(nil, labels, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	want := filterRecs(sortedByStart(recs), func(r *Record) bool { return r.PLabel != u(2) })
	if !recordsEqual(got, want) {
		t.Fatalf("merge returned %d records, want %d in start order", len(got), len(want))
	}
}

// TestCursorReportsPageErrors: a cursor whose run hits a corrupt page
// ends with the error, and keeps it.
func TestCursorReportsPageErrors(t *testing.T) {
	f := pager.OpenMem(64)
	rel, err := Build(f, ClusterPLabel, makeRecords(2000))
	if err != nil {
		t.Fatal(err)
	}
	last := rel.meta.heapLast
	if err := f.Update(last, func(p []byte) error {
		p[2], p[3] = 0xFF, 0xFF // a run directory past the page
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	labels := []uint128.Uint128{u(0), u(199)} // the first and the last page
	c := rel.ScanPLabels(nil, labels, nil, 0)
	if _, err := drainCursor(c); err == nil {
		t.Fatal("a cursor over a corrupt page returned no error")
	}
	if c.Head() != nil || c.Err() == nil {
		t.Fatal("a failed cursor has a head or lost its error")
	}
}

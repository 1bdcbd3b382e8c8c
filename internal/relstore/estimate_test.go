package relstore

import (
	"testing"

	"repro/internal/pager"
)

// TestEstimates cross-checks Selection.Estimate, the planner's probe,
// and the data index's value count against real scans on the
// makeRecords corpus (runs of 10 per plabel, tags 1..7, 13 data
// values): zero means provably empty, non-zero stays within the loose
// interpolation bound, and exact short runs come back exact.
func TestEstimates(t *testing.T) {
	const n = 5000
	sp := buildSP(t, makeRecords(n))

	ctx := NewExecContext()
	// Exact run length: plabel 3 is a run of 10, well inside one leaf.
	if _, got, exact, err := sp.PLabel(u(3)).Estimate(ctx); err != nil || got != 10 || !exact {
		t.Fatalf("PLabel(3).Estimate = %d, %v, %v, want exact 10", got, exact, err)
	}
	// Provably empty run: plabel past the data.
	if _, got, exact, err := sp.PLabel(u(n)).Estimate(ctx); err != nil || got != 0 || !exact {
		t.Fatalf("PLabel(%d).Estimate = %d, %v, %v, want exact 0", n, got, exact, err)
	}
	// Range probe vs. true count.
	trueCount := func(lo, hi uint64) int { return len(scanPLabelRange(t, sp, nil, u(lo), u(hi))) }
	for _, r := range [][2]uint64{{0, 0}, {10, 20}, {0, n / 10}, {100, 400}} {
		want := trueCount(r[0], r[1])
		_, got, _, err := sp.PLabelRange(u(r[0]), u(r[1])).Estimate(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if (got == 0) != (want == 0) {
			t.Fatalf("range [%d,%d]: estimate %d, true %d — zero must be definitive", r[0], r[1], got, want)
		}
		if want > 0 && (got > uint64(want)*3+64 || uint64(want) > got*3+64) {
			t.Fatalf("range [%d,%d]: estimate %d too far from true %d", r[0], r[1], got, want)
		}
	}
	// Probes charge their page reads to the context.
	if ctx.PageReads() == 0 {
		t.Fatal("probe page reads were not accounted to the ExecContext")
	}

	// Data probe on SP, the only relation with a data index: "val-3"
	// occurs every 13 records; "nope" never.
	if got, err := sp.estimateData(nil, "nope"); err != nil || got != 0 {
		t.Fatalf("estimateData(nope) = %d, %v, want 0", got, err)
	}
	got, err := sp.estimateData(nil, "val-3")
	if err != nil || got == 0 {
		t.Fatalf("estimateData(val-3) = %d, %v, want > 0", got, err)
	}
	// Tag probe on the SD relation: each tag covers ~1/7 of the corpus.
	sd, err := Build(pager.OpenMem(256), ClusterTag, makeRecords(n))
	if err != nil {
		t.Fatal(err)
	}
	_, gotTag, _, err := sd.Tag(1).Estimate(nil)
	if err != nil || gotTag == 0 {
		t.Fatalf("Tag(1).Estimate = %d, %v, want > 0", gotTag, err)
	}
	if want := uint64(n / 7); gotTag > want*3 || want > gotTag*3 {
		t.Fatalf("Tag(1).Estimate = %d, want near %d", gotTag, want)
	}
	if _, got, _, err := sd.Tag(99).Estimate(nil); err != nil || got != 0 {
		t.Fatalf("Tag(99).Estimate = %d, %v, want 0", got, err)
	}
}

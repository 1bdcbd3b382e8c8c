package relstore

import (
	"repro/internal/keyenc"
	"repro/internal/uint128"
)

// Selectivity probes for the greedy physical planner.
//
// Each probe answers "how many records would this selection scan?" with
// two O(log n) index descents and no statistics tables: a P-label run's
// length is directly readable from the clustered index, because the
// cluster key orders records by {plabel, start} (or {tag, start}). The
// returned count is exact when both range bounds land on the same index
// leaf and an interpolated estimate otherwise — but zero is always
// definitive (see pbtree.EstimateRange), which is what lets the planner
// prove a fragment empty and short-circuit the whole query.
//
// Probe page reads are accounted to the ExecContext like any scan, so
// planning cost shows up in the same per-query page-read metric the
// paper's experiments report.

// EstimatePLabelRange estimates the number of records with
// lo <= plabel <= hi. The relation must be plabel-clustered.
func (r *Relation) EstimatePLabelRange(ctx *ExecContext, lo, hi uint128.Uint128) (uint64, error) {
	from := keyenc.Uint128(lo)
	to := keyenc.PrefixSuccessor(keyenc.Uint128(hi))
	return r.cluster.EstimateRange(from, to, ctx.pageCounters())
}

// EstimatePLabelExact estimates the length of the single P-label run p.
// The relation must be plabel-clustered.
func (r *Relation) EstimatePLabelExact(ctx *ExecContext, p uint128.Uint128) (uint64, error) {
	prefix := keyenc.Uint128(p)
	return r.cluster.EstimateRange(prefix, keyenc.PrefixSuccessor(prefix), ctx.pageCounters())
}

// EstimateTag estimates the number of records with the given tag id. The
// relation must be tag-clustered.
func (r *Relation) EstimateTag(ctx *ExecContext, tagID uint32) (uint64, error) {
	prefix := keyenc.Uint32(tagID)
	return r.cluster.EstimateRange(prefix, keyenc.PrefixSuccessor(prefix), ctx.pageCounters())
}

// EstimateData estimates the number of records whose data equals value,
// via the data index (which indexes only non-empty values). The relation
// must be plabel-clustered: SD has no data index, and reports 0.
func (r *Relation) EstimateData(ctx *ExecContext, value string) (uint64, error) {
	prefix := keyenc.String(value)
	return r.dataIdx.EstimateRange(prefix, keyenc.PrefixSuccessor(prefix), ctx.pageCounters())
}

package relstore

import (
	"repro/internal/keyenc"
	"repro/internal/uint128"
)

// DistinctPLabels enumerates the distinct plabel values present in
// [lo, hi] using a skip scan over the clustered index: only the first
// entry of each run is touched. A P-label range selection reads its
// records as one ScanPLabelExactBatch per returned label, combined in
// document order by MergeBatchesByStart.
func (r *Relation) DistinctPLabels(ctx *ExecContext, lo, hi uint128.Uint128) ([]uint128.Uint128, error) {
	var out []uint128.Uint128
	cur := keyenc.Uint128(lo)
	end := keyenc.PrefixSuccessor(keyenc.Uint128(hi))
	for {
		it := r.cluster.ScanCounted(cur, end, ctx.pageCounters())
		if !it.Next() {
			if err := it.Err(); err != nil {
				return nil, err
			}
			return out, nil
		}
		p := uint128.FromBytes(it.Key())
		out = append(out, p)
		next := keyenc.PrefixSuccessor(keyenc.Uint128(p))
		if next == nil {
			return out, nil
		}
		cur = next
	}
}

package relstore

import (
	"bytes"

	"repro/internal/keyenc"
	"repro/internal/uint128"
)

// DistinctPLabels enumerates the distinct plabel values present in
// [lo, hi] using a skip scan over the clustered index: one SeekKey per
// run, inside pager views, touching only the first entry of each run.
// A P-label range selection reads its records through the cursor
// ScanPLabels opens over the returned labels: one cluster run per
// label, merged by start.
func (r *Relation) DistinctPLabels(ctx *ExecContext, lo, hi uint128.Uint128) ([]uint128.Uint128, error) {
	var out []uint128.Uint128
	var keyBuf [20]byte // plabel + start: one cluster key
	cur := keyenc.Uint128(lo)
	end := keyenc.PrefixSuccessor(keyenc.Uint128(hi))
	for {
		k, ok, err := r.cluster.SeekKey(cur, keyBuf[:0], ctx.pageCounters())
		if err != nil {
			return nil, err
		}
		if !ok || (end != nil && bytes.Compare(k, end) >= 0) {
			return out, nil
		}
		p := uint128.FromBytes(k)
		out = append(out, p)
		next := keyenc.PrefixSuccessor(keyenc.Uint128(p))
		if next == nil {
			return out, nil
		}
		cur = next
	}
}

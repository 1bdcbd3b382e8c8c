package relstore

import (
	"bytes"
	"sync"

	"repro/internal/keyenc"
	"repro/internal/uint128"
)

// maxSetProbes caps the per-run probes of a P-label list's estimate
// (Unfold can emit hundreds of labels); beyond the cap the sum is
// extrapolated.
const maxSetProbes = 16

// Selection is a fragment's access path (paper §5.2: one indexed
// selection over SP or SD): the cluster runs of one relation it reads
// and the value and level predicates its records must pass. It is the
// only way to a fragment's records — Estimate is the planner's probe of
// their number, Open the cursor both engines read them through — and a
// value: building one reads and allocates nothing, and the selection
// Estimate returns, which also knows where its probed runs start, is a
// new value that may be opened any number of times, concurrently.
type Selection struct {
	r      *Relation
	labels []uint128.Uint128 // labelList: one run per P-label
	tags   *TagList          // tagList: one run per tag
	lo, hi uint128.Uint128   // oneRun: P-label lo on SP; labelRange: [lo, hi]
	tag    uint32            // oneRun: the tag id on SD
	value  *string
	values *Relation // whose data index caps a one-run or range estimate by value
	level  uint16
	shape  shape
	// starts holds, by run, the locator of each run's first record as
	// Estimate's probe read it; a run past the slice, or at a zero
	// Locator (page 0 is the meta page), has no position yet.
	starts []Locator
}

// shape is how a Selection names its runs.
type shape uint8

const (
	oneRun     shape = iota // the run of P-label lo (SP) or of tag (SD)
	labelList               // the run of each P-label of labels (SP)
	tagList                 // the run of each tag of tags (SD)
	labelRange              // the run of each P-label present in [lo, hi] (SP)
)

// PLabel selects the run of P-label p, an equality selection on SP.
func (r *Relation) PLabel(p uint128.Uint128) Selection { return Selection{r: r, lo: p} }

// PLabels selects the runs of labels, Unfold's union of equality
// selections on SP.
func (r *Relation) PLabels(labels []uint128.Uint128) Selection {
	return Selection{r: r, labels: labels, shape: labelList}
}

// PLabelRange selects the runs of the P-labels in [lo, hi], a suffix
// path's range selection on SP (paper §3.2).
func (r *Relation) PLabelRange(lo, hi uint128.Uint128) Selection {
	return Selection{r: r, lo: lo, hi: hi, shape: labelRange}
}

// Tag selects the run of tag id t, a tag selection on SD.
func (r *Relation) Tag(t uint32) Selection { return Selection{r: r, tag: t} }

// Tags selects the runs of the tags of l on SD.
func (r *Relation) Tags(l *TagList) Selection { return Selection{r: r, tags: l, shape: tagList} }

// TagList is a fixed list of SD tag runs: a store's element tags, which
// a wildcard selects. The sum of its run lengths is the same for every
// wildcard on the store, so it is probed once, on the first Estimate,
// and charged to no query.
type TagList struct {
	tags []uint32
	once sync.Once
	n    uint64
	err  error
}

// NewTagList returns the list of tags.
func NewTagList(tags []uint32) *TagList { return &TagList{tags: tags} }

// count returns the sum of the list's run lengths on r, probed on the
// first call.
func (l *TagList) count(r *Relation) (uint64, error) {
	l.once.Do(func() {
		for _, t := range l.tags {
			n, _, err := r.prefixCount(nil, keyenc.Uint32(t), nil)
			if l.err = err; err != nil {
				return
			}
			l.n += n
		}
	})
	return l.n, l.err
}

// Where returns s with a fragment's predicates: a record must have data
// *value (when value is non-nil) and level (when level is non-zero).
// values is the relation whose data index counts the records of a
// value, SP (SD has none): Estimate caps a one-run or range selection's
// estimate by that count.
func (s Selection) Where(value *string, level uint16, values *Relation) Selection {
	s.value, s.level, s.values = value, level, values
	return s
}

// Estimate is the planner's probe of the number of records the
// selection reads, from index descents alone, with its page reads
// accounted to ctx. exact reports that a zero is a proof of emptiness.
//   - One run or a range: one EstimateRange of the cluster index (see
//     pbtree), capped by the value's count in the data index; exact.
//   - A P-label list: the sum of its run lengths, the first
//     maxSetProbes probed and the rest extrapolated, in which case the
//     sum is floored at 1 and not exact.
//   - A tag list: the sum of its run lengths (see TagList); exact.
//
// The probe of a run reads the locator of its first record whenever
// that lies in the leaf its lower bound's descent reads. Estimate
// returns s with those positions kept, as probed, whose cursors start
// those runs there with no descent of their own. That covers a P-label
// run, a tag run and each probed label of a list; a range keeps its
// skip scan.
func (s Selection) Estimate(ctx *ExecContext) (probed Selection, n uint64, exact bool, err error) {
	switch s.shape {
	case labelList:
		probes := min(len(s.labels), maxSetProbes)
		s.starts = make([]Locator, probes)
		for i, p := range s.labels[:probes] {
			k, start, err := s.r.prefixCount(ctx, keyenc.Uint128(p), nil)
			if err != nil {
				return s, 0, false, err
			}
			n += k
			s.starts[i] = start
		}
		if probes == len(s.labels) {
			return s, n, true, nil
		}
		return s, max(n*uint64(len(s.labels))/uint64(probes), 1), false, nil
	case tagList:
		n, err = s.tags.count(s.r)
		return s, n, true, err
	case labelRange:
		n, _, err = s.r.prefixCount(ctx, keyenc.Uint128(s.lo), keyenc.Uint128(s.hi))
	default:
		var start Locator
		if s.r.meta.kind == ClusterPLabel {
			n, start, err = s.r.prefixCount(ctx, keyenc.Uint128(s.lo), nil)
		} else {
			n, start, err = s.r.prefixCount(ctx, keyenc.Uint32(s.tag), nil)
		}
		s.starts = []Locator{start}
	}
	if err != nil || s.value == nil || s.values == nil {
		return s, n, true, err
	}
	// An absent value proves the selection empty.
	dv, err := s.values.estimateData(ctx, *s.value)
	return s, min(n, dv), true, err
}

// prefixCount estimates the records whose cluster prefix lies between
// lo and hi (hi nil: equals lo), and returns the locator of the first
// record at or after lo when the probe read it (a zero Locator when
// that entry heads the leaf after the one the probe read).
func (r *Relation) prefixCount(ctx *ExecContext, lo, hi []byte) (uint64, Locator, error) {
	if hi == nil {
		hi = lo
	}
	var locBuf [6]byte
	n, v, ok, err := r.cluster.EstimateRangeValue(lo, keyenc.PrefixSuccessor(hi), locBuf[:0], ctx.pageCounters())
	if err != nil || !ok {
		return n, Locator{}, err
	}
	return n, decodeLocator(v), nil
}

// estimateData estimates the number of records whose data equals value,
// via the data index (which indexes only non-empty values). SD has no
// data index, and reports 0.
func (r *Relation) estimateData(ctx *ExecContext, value string) (uint64, error) {
	prefix := keyenc.String(value)
	return r.dataIdx.EstimateRange(prefix, keyenc.PrefixSuccessor(prefix), ctx.pageCounters())
}

// Open returns the cursor over the selection's records in start order,
// filtered by its predicates, with the pages it reads and the records
// it decodes accounted to ctx. A run Estimate probed starts at the
// locator the probe read. A range finds its runs here, by a skip scan
// of the clustered index: one Seek per distinct P-label reads the label
// and the locator of its first record from one entry, and the label's
// run starts at that locator. Every other run — a selection that was
// not probed, a list's labels past the probe cap, a run whose first
// record headed the leaf after its probe's — seeks its start on the
// cursor's first Head, so a cursor that is never read reads nothing. A
// range with no P-label opens a KnownEmpty cursor.
func (s Selection) Open(ctx *ExecContext) (*Cursor, error) {
	c := &Cursor{value: s.value, level: s.level}
	n := 1
	switch s.shape {
	case labelList:
		n = len(s.labels)
	case tagList:
		n = len(s.tags.tags)
	case labelRange:
		if err := s.openRange(ctx, c); err != nil {
			return nil, err
		}
		return c, nil
	}
	c.runs = make([]cursorRun, n)
	for i := range c.runs {
		h := &c.runs[i].heapRunIter
		*h = heapRunIter{r: s.r, ctx: ctx, plabel: s.lo, tagID: s.tag}
		if s.shape == labelList {
			h.plabel = s.labels[i]
		} else if s.shape == tagList {
			h.tagID = s.tags.tags[i]
		}
		if i < len(s.starts) {
			h.page, h.slot = s.starts[i].Page, int(s.starts[i].Slot)
		}
	}
	return c, nil
}

// openRange is the skip scan: it gives c a run, started at its first
// record, for every P-label present in [s.lo, s.hi].
func (s Selection) openRange(ctx *ExecContext, c *Cursor) error {
	type start struct {
		plabel uint128.Uint128
		loc    Locator
	}
	found := make([]start, 0, 32)
	var keyBuf [20]byte // plabel + start: one cluster key
	var locBuf [6]byte
	end := keyenc.PrefixSuccessor(keyenc.Uint128(s.hi))
	for from := keyenc.Uint128(s.lo); from != nil; {
		k, v, ok, err := s.r.cluster.Seek(from, keyBuf[:0], locBuf[:0], ctx.pageCounters())
		if err != nil {
			return err
		}
		if !ok || (end != nil && bytes.Compare(k, end) >= 0) {
			break
		}
		p := uint128.FromBytes(k)
		found = append(found, start{p, decodeLocator(v)})
		from = keyenc.PrefixSuccessor(keyenc.Uint128(p))
	}
	c.runs = make([]cursorRun, len(found))
	for i, f := range found {
		c.runs[i].heapRunIter = heapRunIter{r: s.r, ctx: ctx, plabel: f.plabel, page: f.loc.Page, slot: int(f.loc.Slot)}
	}
	return nil
}

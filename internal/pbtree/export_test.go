package pbtree

import (
	"bytes"
	"math"

	"repro/internal/pager"
)

// The readers below copy leaves out of the pool and count no page
// reads: they are the reference the seek and estimate probes are
// tested against.

// loadPage copies page id out of the pool into a private buffer.
func (r *Reader) loadPage(id pager.PageID) (*page, error) {
	buf := make([]byte, pager.PageSize)
	if err := r.f.Read(id, buf); err != nil {
		return nil, err
	}
	p := parsePage(buf)
	return &p, nil
}

// leafFor returns a private copy of the leaf that would contain key (a
// nil key: the leftmost leaf).
func (r *Reader) leafFor(key []byte) (*page, error) {
	b := [1]probe{{key: key}}
	if err := r.descend(b[:], nil); err != nil {
		return nil, err
	}
	return r.loadPage(b[0].id)
}

// loc is a key's lower-bound position as the two-descent estimate
// resolved it: the leaf holding the lower bound (the first entry >=
// key), the bound's index in that leaf, and its fractional rank in
// [0, 1] interpolated from the slot positions along the descent path.
type loc struct {
	leaf pager.PageID // noPage once the position is past the last entry
	idx  int
	frac float64
}

// locate descends alone to key's lower-bound position (a nil key: the
// first entry) and returns it with the pages of its path, root to leaf.
// When the lower bound falls past the end of its leaf, the position is
// normalized to the head of the next leaf, whose id is free.
func (r *Reader) locate(key []byte) (loc, []pager.PageID, error) {
	var path []pager.PageID
	id, rank, span := r.tree.Root, 0.0, 1.0
	for level := r.tree.Height; level > 1; level-- {
		path = append(path, id)
		p, err := r.loadPage(id)
		if err != nil {
			return loc{}, nil, err
		}
		i := max(p.search(key), 1) - 1
		rank += span * float64(i) / float64(p.n)
		span /= float64(p.n)
		id = p.child(i)
	}
	path = append(path, id)
	p, err := r.loadPage(id)
	if err != nil {
		return loc{}, nil, err
	}
	out := loc{leaf: id, idx: p.lowerBound(key)}
	if p.n > 0 {
		rank += span * float64(out.idx) / float64(p.n)
	}
	if out.idx >= p.n {
		out.leaf, out.idx = p.next, 0
	}
	out.frac = rank
	return out, path, nil
}

// estimateRangeRef is EstimateRange by one descent per bound, the
// reference the paired descent is tested against. It returns the
// estimate and the pages the two descents read, with repeats.
func (r *Reader) estimateRangeRef(from, to []byte) (uint64, []pager.PageID, error) {
	if r.tree.Count == 0 || from != nil && to != nil && bytes.Compare(from, to) >= 0 {
		return 0, nil, nil
	}
	lo, pages, err := r.locate(from)
	if err != nil || lo.leaf == noPage {
		return 0, pages, err
	}
	hi := loc{leaf: noPage, frac: 1}
	if to != nil {
		var path []pager.PageID
		if hi, path, err = r.locate(to); err != nil {
			return 0, nil, err
		}
		pages = append(pages, path...)
	}
	if hi.leaf == lo.leaf {
		return uint64(hi.idx - lo.idx), pages, nil
	}
	est := int64(math.Round((hi.frac - lo.frac) * float64(r.tree.Count)))
	if est < 1 {
		est = 1
	}
	if uint64(est) > r.tree.Count {
		return r.tree.Count, pages, nil
	}
	return uint64(est), pages, nil
}

// Get returns the value stored under key.
func (r *Reader) Get(key []byte) ([]byte, bool, error) {
	p, err := r.leafFor(key)
	if err != nil {
		return nil, false, err
	}
	i := p.search(key)
	if i > 0 && bytes.Equal(p.key(i-1), key) {
		return p.value(i - 1), true, nil
	}
	return nil, false, nil
}

// Iter iterates entries in key order.
type Iter struct {
	r    *Reader
	p    *page
	idx  int
	to   []byte // exclusive; nil = unbounded
	key  []byte
	val  []byte
	err  error
	done bool
}

// Scan returns an iterator over keys in [from, to). A nil from starts at
// the smallest key; nil to means unbounded.
func (r *Reader) Scan(from, to []byte) *Iter {
	it := &Iter{r: r, to: to}
	p, err := r.leafFor(from)
	if err == nil {
		it.p, it.idx = p, p.lowerBound(from)
	}
	it.err = err
	return it
}

// Next advances the iterator. It returns false at the end of the range or
// on error; check Err afterwards.
func (it *Iter) Next() bool {
	if it.done || it.err != nil {
		return false
	}
	for it.p != nil && it.idx >= it.p.n {
		if it.p.next == noPage {
			it.done = true
			return false
		}
		var err error
		it.p, err = it.r.loadPage(it.p.next)
		if err != nil {
			it.err = err
			return false
		}
		it.idx = 0
	}
	if it.p == nil {
		it.done = true
		return false
	}
	k := it.p.key(it.idx)
	if it.to != nil && bytes.Compare(k, it.to) >= 0 {
		it.done = true
		return false
	}
	it.key = k
	it.val = it.p.value(it.idx)
	it.idx++
	return true
}

// Key returns the current key (valid until the next call to Next).
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value (valid until the next call to Next).
func (it *Iter) Value() []byte { return it.val }

// Err returns the first error encountered during iteration.
func (it *Iter) Err() error { return it.err }

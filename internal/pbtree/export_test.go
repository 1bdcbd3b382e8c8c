package pbtree

import (
	"bytes"

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
	id, _, _, err := r.descend(key, nil)
	if err != nil {
		return nil, err
	}
	return r.loadPage(id)
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

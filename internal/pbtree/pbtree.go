// Package pbtree implements a paged, bulk-loaded, immutable B+ tree.
//
// The BLAS index generator builds its indexes once, at shred time, from
// key-sorted input (the relations are clustered, so index entries arrive
// in order); queries then only read. A write-once/read-many B+ tree
// matches that lifecycle exactly: the builder packs leaves left to right
// and constructs each internal level bottom-up, producing a tree that is
// 100% full and never needs rebalancing.
//
// Pages live in an internal/pager file, so every page touched by a lookup
// or range scan is visible in the buffer-pool statistics — the paper's
// "disk access" metric covers index traversal too.
//
// Page layout (all integers little-endian):
//
//	byte 0       page type (1 = leaf, 2 = inner)
//	bytes 1-2    entry count
//	bytes 3-6    next-leaf page id (leaves only; 0xFFFFFFFF = none)
//	bytes 7..    slot offset table (2 bytes per entry), then entries
//
//	leaf entry:  klen u16, key, vlen u16, value
//	inner entry: klen u16, key, child page id u32
//
// In an inner page, entry i's key is the smallest key stored in the
// subtree of child i.
package pbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/pager"
)

const (
	pageTypeLeaf  = 1
	pageTypeInner = 2
	headerSize    = 7
	noPage        = 0xFFFFFFFF
)

// Tree describes a finished tree. Callers persist this in their own
// metadata and pass it back to Open.
type Tree struct {
	Root   pager.PageID
	Height uint32 // 1 = root is a leaf
	Count  uint64 // number of entries
}

// Builder bulk-loads a tree from strictly increasing keys.
type Builder struct {
	f       *pager.File
	levels  []*pageBuf // levels[0] = leaf level
	lastKey []byte
	count   uint64
	err     error
}

// pageBuf accumulates entries for one page under construction.
type pageBuf struct {
	leaf     bool
	keys     [][]byte
	vals     [][]byte // leaf values
	children []pager.PageID
	used     int          // bytes used by slots+entries so far
	prevLeaf pager.PageID // page id of the previous flushed leaf, noPage if none
	// firstKeys/pageIDs of flushed pages feed the level above.
}

// NewBuilder returns a Builder writing pages into f.
func NewBuilder(f *pager.File) *Builder {
	return &Builder{f: f, levels: []*pageBuf{{leaf: true, prevLeaf: noPage}}}
}

func leafEntrySize(k, v []byte) int  { return 2 + 2 + len(k) + 2 + len(v) } // slot + klen+key + vlen+val
func innerEntrySize(k []byte) int    { return 2 + 2 + len(k) + 4 }          // slot + klen+key + child
func (b *pageBuf) capacityLeft() int { return pager.PageSize - headerSize - b.used }

// Add appends an entry. Keys must be strictly increasing.
func (b *Builder) Add(key, value []byte) error {
	if b.err != nil {
		return b.err
	}
	if b.lastKey != nil && bytes.Compare(key, b.lastKey) <= 0 {
		b.err = fmt.Errorf("pbtree: keys not strictly increasing: %x after %x", key, b.lastKey)
		return b.err
	}
	if leafEntrySize(key, value) > pager.PageSize-headerSize {
		b.err = fmt.Errorf("pbtree: entry too large: %d bytes", leafEntrySize(key, value))
		return b.err
	}
	b.lastKey = append(b.lastKey[:0], key...)
	b.count++

	lv := b.levels[0]
	if leafEntrySize(key, value) > lv.capacityLeft() {
		if err := b.flushLevel(0); err != nil {
			return err
		}
	}
	lv.keys = append(lv.keys, append([]byte(nil), key...))
	lv.vals = append(lv.vals, append([]byte(nil), value...))
	lv.used += leafEntrySize(key, value)
	return nil
}

// flushLevel writes out the page buffered at level i and pushes its first
// key into level i+1.
func (b *Builder) flushLevel(i int) error {
	lv := b.levels[i]
	if len(lv.keys) == 0 {
		return nil
	}
	id, err := b.writePage(lv)
	if err != nil {
		return err
	}
	firstKey := lv.keys[0]

	// Reset the buffer for the next page at this level.
	if lv.leaf {
		lv.prevLeaf = id
	}
	lv.keys = nil
	lv.vals = nil
	lv.children = nil
	lv.used = 0

	// Parent entry.
	if i+1 == len(b.levels) {
		b.levels = append(b.levels, &pageBuf{prevLeaf: noPage})
	}
	parent := b.levels[i+1]
	if innerEntrySize(firstKey) > parent.capacityLeft() {
		if err := b.flushLevel(i + 1); err != nil {
			return err
		}
	}
	parent.keys = append(parent.keys, firstKey)
	parent.children = append(parent.children, id)
	parent.used += innerEntrySize(firstKey)
	return nil
}

// writePage serializes lv into a freshly allocated page; for leaves it
// also patches the previous leaf's next pointer.
func (b *Builder) writePage(lv *pageBuf) (pager.PageID, error) {
	id, err := b.f.Alloc()
	if err != nil {
		return 0, err
	}
	err = b.f.Update(id, func(p []byte) error {
		if lv.leaf {
			p[0] = pageTypeLeaf
		} else {
			p[0] = pageTypeInner
		}
		n := len(lv.keys)
		binary.LittleEndian.PutUint16(p[1:3], uint16(n))
		binary.LittleEndian.PutUint32(p[3:7], noPage)
		off := headerSize + 2*n
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint16(p[headerSize+2*i:], uint16(off))
			k := lv.keys[i]
			binary.LittleEndian.PutUint16(p[off:], uint16(len(k)))
			off += 2
			copy(p[off:], k)
			off += len(k)
			if lv.leaf {
				v := lv.vals[i]
				binary.LittleEndian.PutUint16(p[off:], uint16(len(v)))
				off += 2
				copy(p[off:], v)
				off += len(v)
			} else {
				binary.LittleEndian.PutUint32(p[off:], uint32(lv.children[i]))
				off += 4
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if lv.leaf && lv.prevLeaf != noPage {
		if err := b.f.Update(lv.prevLeaf, func(p []byte) error {
			binary.LittleEndian.PutUint32(p[3:7], uint32(id))
			return nil
		}); err != nil {
			return 0, err
		}
	}
	return id, nil
}

// Finish flushes all buffered pages and returns the tree descriptor.
func (b *Builder) Finish() (Tree, error) {
	if b.err != nil {
		return Tree{}, b.err
	}
	// Empty tree: a single empty leaf.
	if b.count == 0 {
		lv := b.levels[0]
		id, err := b.writePage(lv)
		if err != nil {
			return Tree{}, err
		}
		return Tree{Root: id, Height: 1, Count: 0}, nil
	}
	for i := 0; i < len(b.levels); i++ {
		lv := b.levels[i]
		// The topmost level becomes the root if it holds everything in
		// one page and nothing was pushed above it.
		last := i == len(b.levels)-1
		if last && len(lv.keys) > 0 {
			id, err := b.writePage(lv)
			if err != nil {
				return Tree{}, err
			}
			return Tree{Root: id, Height: uint32(i + 1), Count: b.count}, nil
		}
		if err := b.flushLevel(i); err != nil {
			return Tree{}, err
		}
	}
	// flushLevel grew a new top level containing exactly one child.
	top := b.levels[len(b.levels)-1]
	if len(top.children) == 1 {
		return Tree{Root: top.children[0], Height: uint32(len(b.levels) - 1), Count: b.count}, nil
	}
	id, err := b.writePage(top)
	if err != nil {
		return Tree{}, err
	}
	return Tree{Root: id, Height: uint32(len(b.levels)), Count: b.count}, nil
}

// Reader provides lookups and scans over a finished tree.
type Reader struct {
	f    *pager.File
	tree Tree
}

// NewReader returns a Reader for tree stored in f.
func NewReader(f *pager.File, tree Tree) *Reader { return &Reader{f: f, tree: tree} }

// Count returns the number of entries in the tree.
func (r *Reader) Count() uint64 { return r.tree.Count }

// page interprets a page image: either a pinned pager frame (valid only
// inside a view, used for descents) or a private copy (what iterators
// hold — the copy is what makes them immune to eviction: the pager
// frame is unpinned while the iterator keeps reading its own buffer).
// Slot offsets are read straight out of the image on demand; parsing
// the whole slot table up front would cost O(n) per page load when a
// descent only touches O(log n) slots.
type page struct {
	typ  byte
	n    int
	next pager.PageID
	data []byte
}

// parsePage interprets buf as a page. The result aliases buf.
func parsePage(buf []byte) page {
	return page{
		typ:  buf[0],
		n:    int(binary.LittleEndian.Uint16(buf[1:3])),
		next: pager.PageID(binary.LittleEndian.Uint32(buf[3:7])),
		data: buf,
	}
}

// loadPage copies page id out of the pool into a private buffer.
func (r *Reader) loadPage(id pager.PageID) (*page, error) {
	buf := make([]byte, pager.PageSize)
	if err := r.f.Read(id, buf); err != nil {
		return nil, err
	}
	p := parsePage(buf)
	return &p, nil
}

func (p *page) slot(i int) int {
	return int(binary.LittleEndian.Uint16(p.data[headerSize+2*i:]))
}

func (p *page) key(i int) []byte {
	off := p.slot(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	return p.data[off+2 : off+2+klen]
}

func (p *page) value(i int) []byte {
	off := p.slot(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	voff := off + 2 + klen
	vlen := int(binary.LittleEndian.Uint16(p.data[voff:]))
	return p.data[voff+2 : voff+2+vlen]
}

func (p *page) child(i int) pager.PageID {
	off := p.slot(i)
	klen := int(binary.LittleEndian.Uint16(p.data[off:]))
	return pager.PageID(binary.LittleEndian.Uint32(p.data[off+2+klen:]))
}

// search returns the number of keys in p that are <= key.
func (p *page) search(key []byte) int {
	lo, hi := 0, p.n
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(p.key(mid), key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value stored under key.
func (r *Reader) Get(key []byte) ([]byte, bool, error) {
	p, err := r.leafFor(key, nil)
	if err != nil {
		return nil, false, err
	}
	i := p.search(key)
	if i > 0 && bytes.Equal(p.key(i-1), key) {
		return p.value(i - 1), true, nil
	}
	return nil, false, nil
}

// SeekValue copies the value of the first entry with key >= from (nil
// from = the smallest entry) into dst[:0], returning the possibly grown
// slice. ok is false when no such entry exists. The descent and leaf
// inspection run entirely inside pager views: unlike Scan, nothing is
// copied out of the pool but the value itself — the cheap way to probe
// a single position without materializing a leaf.
func (r *Reader) SeekValue(from, dst []byte, c *pager.Counters) (val []byte, ok bool, err error) {
	return r.seek(from, dst, c, false)
}

// SeekKey is SeekValue returning the entry's key instead of its value:
// the same descent, page reads and in-view copy. A skip scan probes
// with it for the next distinct key prefix.
func (r *Reader) SeekKey(from, dst []byte, c *pager.Counters) (key []byte, ok bool, err error) {
	return r.seek(from, dst, c, true)
}

// seek copies the key (wantKey) or the value of the first entry with
// key >= from into dst[:0].
func (r *Reader) seek(from, dst []byte, c *pager.Counters, wantKey bool) ([]byte, bool, error) {
	id := r.tree.Root
	for {
		var found, exhausted bool
		next := id
		err := r.f.ViewCounted(id, c, func(buf []byte) error {
			p := parsePage(buf)
			if p.typ == pageTypeInner {
				i := p.search(from)
				if i == 0 {
					i = 1
				}
				next = p.child(i - 1)
				return nil
			}
			i := 0
			if from != nil {
				i = p.search(from)
				if i > 0 && bytes.Equal(p.key(i-1), from) {
					i-- // include the exact match
				}
			}
			if i >= p.n {
				// Past this leaf: the sought entry, if any, heads the
				// next leaf (descent picked the last subtree whose
				// separator is <= from, so that key is provably > from).
				if p.next == noPage {
					exhausted = true
					return nil
				}
				next = p.next
				return nil
			}
			if wantKey {
				dst = append(dst[:0], p.key(i)...)
			} else {
				dst = append(dst[:0], p.value(i)...)
			}
			found = true
			return nil
		})
		if err != nil {
			return dst, false, err
		}
		if found {
			return dst, true, nil
		}
		if exhausted {
			return dst, false, nil
		}
		id = next
	}
}

// leafFor descends to the leaf that would contain key (a nil key
// descends leftmost). Inner pages are searched in place inside pager
// views — no copy, no allocation — and only the leaf is copied out,
// since it is the one page that outlives the descent.
func (r *Reader) leafFor(key []byte, c *pager.Counters) (*page, error) {
	id := r.tree.Root
	for {
		var leaf *page
		next := id
		err := r.f.ViewCounted(id, c, func(buf []byte) error {
			p := parsePage(buf)
			if p.typ == pageTypeInner {
				i := p.search(key)
				if i == 0 {
					// key is smaller than every key in the tree (or nil):
					// descend leftmost.
					i = 1
				}
				next = p.child(i - 1)
				return nil
			}
			own := make([]byte, len(buf))
			copy(own, buf)
			lp := parsePage(own)
			leaf = &lp
			return nil
		})
		if err != nil {
			return nil, err
		}
		if leaf != nil {
			return leaf, nil
		}
		id = next
	}
}

// loc is a resolved key position used by EstimateRange: the leaf holding
// the key's lower bound (the first entry >= key), the bound's index in
// that leaf, and a fractional rank in [0, 1] interpolated from the slot
// positions along the descent path.
type loc struct {
	leaf pager.PageID // noPage once the position is past the last entry
	idx  int
	frac float64
}

// locate descends to key's lower-bound position in O(height) page reads.
// A nil key locates the first entry. When the lower bound falls past the
// end of its leaf, the position is normalized to the head of the next
// leaf (whose first key is provably > key, because descent always picks
// the last subtree whose separator is <= key), so two positions on the
// same leaf always yield an exact entry count.
func (r *Reader) locate(key []byte, c *pager.Counters) (loc, error) {
	id := r.tree.Root
	var frac float64
	span := 1.0
	for {
		var out loc
		done := false
		next := id
		err := r.f.ViewCounted(id, c, func(buf []byte) error {
			// The whole descent runs against pinned frames: locate
			// retains only offsets and fractions, never page bytes, so
			// nothing needs to be copied out of the pool.
			p := parsePage(buf)
			if p.typ == pageTypeInner {
				i := 0
				if key != nil {
					if i = p.search(key); i > 0 {
						i--
					}
				}
				frac += span * float64(i) / float64(p.n)
				span /= float64(p.n)
				next = p.child(i)
				return nil
			}
			done = true
			lb := 0
			if key != nil {
				lb = p.search(key)
				if lb > 0 && bytes.Equal(p.key(lb-1), key) {
					lb-- // lower bound includes the exact match
				}
			}
			if p.n > 0 {
				frac += span * float64(lb) / float64(p.n)
			}
			if lb >= p.n {
				// Past this leaf's entries: the lower bound is the next
				// leaf's first entry (its id is free — no extra read).
				out = loc{leaf: p.next, idx: 0, frac: frac}
				return nil
			}
			out = loc{leaf: id, idx: lb, frac: frac}
			return nil
		})
		if err != nil {
			return loc{}, err
		}
		if done {
			return out, nil
		}
		id = next
	}
}

// EstimateRange estimates the number of entries with from <= key < to
// (nil to = unbounded above, nil from = unbounded below) in O(height)
// page reads per bound — the statistics-free selectivity probe behind
// the greedy physical planner.
//
// The result is exact whenever both bounds resolve to the same leaf
// page; otherwise it interpolates between the bounds' fractional ranks
// and clamps to [1, Count]. Zero is therefore definitive: a zero return
// proves the range is empty. Pages touched by the two descents are
// recorded in c like any other index traversal.
func (r *Reader) EstimateRange(from, to []byte, c *pager.Counters) (uint64, error) {
	if r.tree.Count == 0 {
		return 0, nil
	}
	if from != nil && to != nil && bytes.Compare(from, to) >= 0 {
		return 0, nil
	}
	lo, err := r.locate(from, c)
	if err != nil {
		return 0, err
	}
	if lo.leaf == noPage {
		return 0, nil // no entry at or above from
	}
	hi := loc{leaf: noPage, idx: 0, frac: 1}
	if to != nil {
		if hi, err = r.locate(to, c); err != nil {
			return 0, err
		}
	}
	if hi.leaf == lo.leaf {
		return uint64(hi.idx - lo.idx), nil
	}
	// Bounds on different leaves: at least one entry is in range (the
	// entry at lo itself), so the clamped interpolation never reports a
	// false empty.
	est := int64(math.Round((hi.frac - lo.frac) * float64(r.tree.Count)))
	if est < 1 {
		est = 1
	}
	if uint64(est) > r.tree.Count {
		return r.tree.Count, nil
	}
	return uint64(est), nil
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
// the smallest key; nil to means unbounded. It copies each leaf it
// visits out of the pool, and its page reads go uncounted: it is the
// reference reader the seek and estimate probes are tested against.
func (r *Reader) Scan(from, to []byte) *Iter {
	it := &Iter{r: r, to: to}
	p, err := r.leafFor(from, nil)
	if err == nil {
		i := 0
		if from != nil {
			i = p.search(from)
			if i > 0 && bytes.Equal(p.key(i-1), from) {
				i-- // include the exact match
			}
		}
		it.p, it.idx = p, i
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

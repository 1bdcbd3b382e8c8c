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

// Reader provides seeks and estimates over a finished tree.
type Reader struct {
	f    *pager.File
	tree Tree
}

// NewReader returns a Reader for tree stored in f.
func NewReader(f *pager.File, tree Tree) *Reader { return &Reader{f: f, tree: tree} }

// Count returns the number of entries in the tree.
func (r *Reader) Count() uint64 { return r.tree.Count }

// page interprets a page image, usually a pinned pager frame that is
// valid only inside its view. Slot offsets are read straight out of the
// image on demand; parsing the whole slot table up front would cost
// O(n) per page when a descent only touches O(log n) slots.
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

// lowerBound returns the index of the first key in p that is >= key (0
// for a nil key), p.n when there is none.
func (p *page) lowerBound(key []byte) int {
	i := p.search(key)
	if i > 0 && bytes.Equal(p.key(i-1), key) {
		i-- // include the exact match
	}
	return i
}

// descend searches the inner pages from the root toward key, in place
// inside pager views, and returns the leaf where key's lower bound (the
// first entry >= key) lies, or whose end it is: each inner page picks
// the last child whose smallest key is <= key, the first child when
// none is (a nil key descends leftmost), so an entry past the leaf's
// end heads the next leaf. rank is the fraction of the tree's entries
// that lie in the leaves left of that leaf and span the fraction one
// leaf covers, both interpolated from the slot positions along the
// path. Every seek and estimate starts here.
func (r *Reader) descend(key []byte, c *pager.Counters) (leaf pager.PageID, rank, span float64, err error) {
	id, span := r.tree.Root, 1.0
	for level := r.tree.Height; level > 1 && err == nil; level-- {
		err = r.f.ViewCounted(id, c, func(buf []byte) error {
			p := parsePage(buf)
			if p.typ != pageTypeInner || p.n == 0 {
				return fmt.Errorf("pbtree: page %d is not an inner page of a height-%d tree", id, r.tree.Height)
			}
			i := max(p.search(key), 1) - 1
			rank += span * float64(i) / float64(p.n)
			span /= float64(p.n)
			id = p.child(i)
			return nil
		})
	}
	return id, rank, span, err
}

// Seek copies the key and the value of the first entry with key >=
// from (nil from = the smallest entry) into kdst[:0] and vdst[:0],
// returning the possibly grown slices. ok is false when no such entry
// exists. The descent and the leaf are read inside pager views, so
// nothing is copied out of the pool but the entry: one descent finds a
// position, and a skip scan reads the next distinct key prefix and its
// locator from the same entry.
func (r *Reader) Seek(from, kdst, vdst []byte, c *pager.Counters) (key, val []byte, ok bool, err error) {
	id, _, _, err := r.descend(from, c)
	for err == nil && id != noPage && !ok {
		err = r.f.ViewCounted(id, c, func(buf []byte) error {
			p := parsePage(buf)
			if i := p.lowerBound(from); i < p.n {
				kdst, vdst, ok = append(kdst[:0], p.key(i)...), append(vdst[:0], p.value(i)...), true
			}
			id = p.next // past this leaf, the entry (if any) heads the next
			return nil
		})
	}
	return kdst, vdst, ok, err
}

// SeekValue is Seek for the value alone, which the entry's key is
// copied beside on the stack: the cursor's run seek reads only the
// locator.
func (r *Reader) SeekValue(from, dst []byte, c *pager.Counters) (val []byte, ok bool, err error) {
	var keyBuf [32]byte
	_, val, ok, err = r.Seek(from, keyBuf[:0], dst, c)
	return val, ok, err
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
// leaf (whose first key is provably > key), so two positions on the
// same leaf always yield an exact entry count.
func (r *Reader) locate(key []byte, c *pager.Counters) (loc, error) {
	id, rank, span, err := r.descend(key, c)
	if err != nil {
		return loc{}, err
	}
	out := loc{leaf: id}
	err = r.f.ViewCounted(id, c, func(buf []byte) error {
		p := parsePage(buf)
		out.idx = p.lowerBound(key)
		if p.n > 0 {
			rank += span * float64(out.idx) / float64(p.n)
		}
		if out.idx >= p.n {
			// The next leaf's first entry: its id is free, no extra read.
			out.leaf, out.idx = p.next, 0
		}
		return nil
	})
	out.frac = rank
	return out, err
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

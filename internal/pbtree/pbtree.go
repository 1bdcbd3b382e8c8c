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

// probe is one key's way down the tree: the page it is on, and its
// fractional rank among the tree's entries with the span one entry of
// that page covers, both interpolated from the slot positions along
// its path. At its leaf, idx is the key's lower bound (the first entry
// >= key) in that leaf.
type probe struct {
	key        []byte
	id         pager.PageID
	rank, span float64
	idx        int
}

// inner steps b from inner page p to its child: the last child whose
// smallest key is <= b.key, the first child when none is (a nil key
// descends leftmost), so a lower bound past the end of the leaf it
// reaches heads the next leaf.
func (b *probe) inner(p *page) {
	i := max(p.search(b.key), 1) - 1
	b.rank += b.span * float64(i) / float64(p.n)
	b.span /= float64(p.n)
	b.id = p.child(i)
}

// leaf finds b's lower bound in leaf p and adds its position to b.rank.
func (b *probe) leaf(p *page) {
	b.idx = p.lowerBound(b.key)
	if p.n > 0 {
		b.rank += b.span * float64(b.idx) / float64(p.n)
	}
}

// together returns the end of the probes of ps from i on that are on
// ps[i]'s page. Probes in key order that share a page are adjacent,
// since two descent paths that part never meet again, so one view of
// the page serves ps[i:together(ps, i)].
func together(ps []probe, i int) int {
	j := i + 1
	for j < len(ps) && ps[j].id == ps[i].id {
		j++
	}
	return j
}

// descend moves the probes of ps (one key, or two in ascending order)
// from the root to their leaves through the inner pages, in place
// inside pager views: each page on both paths is viewed once, and the
// paths split only where the keys do. Every seek and estimate starts
// here.
func (r *Reader) descend(ps []probe, c *pager.Counters) error {
	for i := range ps {
		ps[i].id, ps[i].rank, ps[i].span = r.tree.Root, 0, 1
	}
	for level := r.tree.Height; level > 1; level-- {
		for i, j := 0, 0; i < len(ps); i = j {
			id := ps[i].id
			j = together(ps, i)
			err := r.f.ViewCounted(id, c, func(buf []byte) error {
				p := parsePage(buf)
				if p.typ != pageTypeInner || p.n == 0 {
					return fmt.Errorf("pbtree: page %d is not an inner page of a height-%d tree", id, r.tree.Height)
				}
				for k := i; k < j; k++ {
					ps[k].inner(&p)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// Seek copies the key and the value of the first entry with key >=
// from (nil from = the smallest entry) into kdst[:0] and vdst[:0],
// returning the possibly grown slices. ok is false when no such entry
// exists. The descent and the leaf are read inside pager views, so
// nothing is copied out of the pool but the entry: one descent finds a
// position, and a skip scan reads the next distinct key prefix and its
// locator from the same entry. By the descent's invariant the entry
// lies in the leaf reached or heads the next one, so Seek reads at most
// those two leaves: a leaf chain that leads further is corrupt (a
// hostile next pointer could otherwise loop forever).
func (r *Reader) Seek(from, kdst, vdst []byte, c *pager.Counters) (key, val []byte, ok bool, err error) {
	b := [1]probe{{key: from}}
	if err := r.descend(b[:], c); err != nil {
		return kdst, vdst, false, err
	}
	id := b[0].id
	for hop := 0; err == nil && id != noPage && !ok; hop++ {
		err = r.f.ViewCounted(id, c, func(buf []byte) error {
			p := parsePage(buf)
			if i := p.lowerBound(from); i < p.n {
				kdst, vdst, ok = append(kdst[:0], p.key(i)...), append(vdst[:0], p.value(i)...), true
				return nil
			}
			if hop > 0 {
				return fmt.Errorf("pbtree: corrupt leaf %d: it follows the leaf of a key's lower bound but holds no entry at or above the key", id)
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

// EstimateRange estimates the number of entries with from <= key < to
// (nil to = unbounded above, nil from = unbounded below) — the
// statistics-free selectivity probe behind the greedy physical planner.
// One descent locates both bounds (see descend), so the probe reads at
// most height pages per bound, and a page on both paths once.
//
// The result is exact whenever both bounds resolve to the same leaf
// page (a bound past the end of its leaf resolves to the head of the
// next); otherwise it interpolates between the bounds' fractional ranks
// and clamps to [1, Count]. Zero is therefore definitive: a zero return
// proves the range is empty. The pages the descent reads are recorded
// in c like any other index traversal.
func (r *Reader) EstimateRange(from, to []byte, c *pager.Counters) (uint64, error) {
	n, _, _, err := r.EstimateRangeValue(from, to, nil, c)
	return n, err
}

// EstimateRangeValue is EstimateRange that also copies into vdst[:0]
// the value of from's lower bound, the value Seek(from) finds, when
// that entry lies in the leaf the probe reads: then ok is true, and a
// scan of the range can start there without a descent of its own. When
// the lower bound heads the next leaf, or there is none, or vdst is nil
// (nothing is copied then), ok is false.
func (r *Reader) EstimateRangeValue(from, to, vdst []byte, c *pager.Counters) (n uint64, val []byte, ok bool, err error) {
	if r.tree.Count == 0 || from != nil && to != nil && bytes.Compare(from, to) >= 0 {
		return 0, vdst, false, nil
	}
	ps := [2]probe{{key: from}, {key: to}}
	bounds := ps[:1]
	if to != nil {
		bounds = ps[:]
	}
	if err := r.descend(bounds, c); err != nil {
		return 0, vdst, false, err
	}
	for i, j := 0, 0; i < len(bounds); i = j {
		j = together(bounds, i)
		err := r.f.ViewCounted(bounds[i].id, c, func(buf []byte) error {
			p := parsePage(buf)
			for k := i; k < j; k++ {
				b := &bounds[k]
				b.leaf(&p)
				if b.idx >= p.n {
					// The next leaf's first entry: its id is free, no
					// extra read.
					b.id, b.idx = p.next, 0
				} else if k == 0 && vdst != nil {
					val, ok = append(vdst[:0], p.value(b.idx)...), true
				}
			}
			return nil
		})
		if err != nil {
			return 0, vdst, false, err
		}
	}
	lo, hi := &ps[0], &ps[1]
	switch {
	case lo.id == noPage:
		return 0, val, ok, nil // no entry at or above from
	case to == nil:
		hi.id, hi.rank = noPage, 1
	}
	if hi.id == lo.id {
		return uint64(hi.idx - lo.idx), val, ok, nil
	}
	// Bounds on different leaves: at least one entry is in range (the
	// entry at lo itself), so the clamped interpolation never reports a
	// false empty.
	est := int64(math.Round((hi.rank - lo.rank) * float64(r.tree.Count)))
	return uint64(min(max(est, 1), int64(r.tree.Count))), val, ok, nil
}

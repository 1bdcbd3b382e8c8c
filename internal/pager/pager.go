// Package pager provides a paged file abstraction with a sharded,
// pinning LRU buffer pool.
//
// BLAS stores its relations and indexes in fixed-size pages. All reads go
// through the buffer pool, whose miss counter is the concrete realization
// of the paper's "disk access" metric: a page that is not resident costs
// one disk access, a resident page costs none. The experiments in §5
// compare approaches by the number of such accesses, so the pool keeps
// per-file statistics that the benchmark harness reports.
//
// The pager supports both on-disk files (via os.File) and in-memory files
// (for tests and ephemeral stores).
//
// # Sharding
//
// The pool is striped into N shards (N a power of two, default
// nextPow2(GOMAXPROCS), capped at the pool capacity), each with its own
// mutex, frame map and LRU list. Page id i lives in shard i&(N-1), so a
// sequential scan round-robins across shards and two goroutines scanning
// different pages contend only when their pages share a shard. All stats
// counters are atomics, so hot-path accounting never takes a lock;
// reads, misses and evictions are kept per shard (ShardStats) and
// aggregated by Stats, giving metrics exporters a view of how page
// traffic spreads across the stripes.
//
// # Pinning
//
// View, ViewCounted and Update pin the frame, release the shard lock,
// run the callback, then unpin. Page decoding and backing-store misses of
// different pages therefore overlap instead of serializing on a
// file-wide mutex. The pin protocol callers must observe:
//
//   - The page slice passed to a callback is valid only for the duration
//     of the call. Copy anything that must outlive it (all in-tree
//     callers do: pbtree copies whole pages, relstore decodes records by
//     value).
//   - Pinned frames are eviction-exempt: eviction scans the LRU from the
//     tail for an unpinned victim and, if every frame in the shard is
//     pinned, grows the shard transiently past its capacity rather than
//     reusing a buffer a reader is still looking at.
//   - Readers never mutate the page; writers (Update) must not run
//     concurrently with readers of the same page. BLAS satisfies this by
//     lifecycle: relations are written single-threaded at build time and
//     immutable afterwards.
//
// DropCache may run concurrently with readers. It empties the pool, and
// keeps the frames nobody has pinned on the shard's idle list, from
// which later misses take their buffers before allocating: a cold-cache
// query loop reuses the same frames instead of allocating a page per
// miss. A pinned frame is discarded instead, never reused, so its reader
// keeps a valid (garbage-collector-protected) snapshot while subsequent
// requests for the page miss and fetch another frame.
package pager

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
)

// PageSize is the size of every page in bytes.
const PageSize = 8192

// PageID identifies a page within a file.
type PageID uint32

// Stats counts buffer pool traffic.
type Stats struct {
	Reads      uint64 // page requests
	Misses     uint64 // requests that had to fetch from the backing file
	Writes     uint64 // page writes to the backing file
	Allocs     uint64 // pages allocated
	Evictions  uint64 // pages evicted from the pool
	BytesRead  uint64
	BytesWrite uint64
}

// Hits returns the number of requests served from the pool.
func (s Stats) Hits() uint64 { return s.Reads - s.Misses }

// ShardStats counts one pool shard's traffic. Reads, misses and
// evictions are maintained per shard (File.Stats aggregates them), so a
// metrics exporter can see whether page traffic actually spreads across
// the lock stripes or piles onto a hot shard.
type ShardStats struct {
	Reads     uint64 // page requests routed to this shard
	Misses    uint64 // requests that fetched from the backing file
	Evictions uint64 // frames evicted from this shard
}

// fileStats is the live, atomically-updated form of the file-wide Stats
// counters: the hot path increments these without holding any lock.
// Reads, misses and evictions live on the shards instead.
type fileStats struct {
	writes     atomic.Uint64
	allocs     atomic.Uint64
	bytesRead  atomic.Uint64
	bytesWrite atomic.Uint64
}

func (s *fileStats) reset() {
	s.writes.Store(0)
	s.allocs.Store(0)
	s.bytesRead.Store(0)
	s.bytesWrite.Store(0)
}

// Counters accumulates page-access statistics for one caller — the
// per-query attribution that File.Stats (a lifetime aggregate shared by
// every reader of the file) cannot provide. A nil *Counters is valid and
// discards the counts. Safe for concurrent use.
type Counters struct {
	Reads  atomic.Uint64 // page requests
	Misses atomic.Uint64 // requests that went to the backing file
}

// count records one page request, nil-safely.
func (c *Counters) count(miss bool) {
	if c == nil {
		return
	}
	c.Reads.Add(1)
	if miss {
		c.Misses.Add(1)
	}
}

// backing abstracts the storage under a paged file.
type backing interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Close() error
	Sync() error
}

// memBacking is an in-memory backing store. Reads take the read lock so
// that concurrent pool misses in different shards overlap, mirroring how
// independent preads overlap on an os.File.
type memBacking struct {
	mu  sync.RWMutex
	buf []byte
}

func (m *memBacking) ReadAt(p []byte, off int64) (int, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if off >= int64(len(m.buf)) {
		return 0, io.EOF
	}
	n := copy(p, m.buf[off:])
	if n < len(p) {
		return n, io.ErrUnexpectedEOF
	}
	return n, nil
}

func (m *memBacking) WriteAt(p []byte, off int64) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if need := off + int64(len(p)); need > int64(len(m.buf)) {
		old := len(m.buf)
		if need > int64(cap(m.buf)) {
			// Page appends arrive one at a time: double, so a build
			// copies each byte O(1) times instead of once per page.
			grown := make([]byte, need, max(need, 2*int64(cap(m.buf))))
			copy(grown, m.buf)
			m.buf = grown
		} else {
			// Capacity past len may hold bytes a Truncate cut off; a
			// gap below off must read as zeros.
			m.buf = m.buf[:need]
			if off > int64(old) {
				clear(m.buf[old:off])
			}
		}
	}
	copy(m.buf[off:], p)
	return len(p), nil
}

func (m *memBacking) Truncate(size int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if size < int64(len(m.buf)) {
		m.buf = m.buf[:size]
	}
	return nil
}

func (m *memBacking) Close() error { return nil }
func (m *memBacking) Sync() error  { return nil }

// Config configures a paged file's buffer pool.
type Config struct {
	// PoolPages is the total pool capacity in pages across all shards;
	// <= 0 selects DefaultPoolPages. The pool has one lock-striped shard
	// per CPU, nextPow2(GOMAXPROCS), capped at PoolPages.
	PoolPages int
}

// File is a paged file fronted by a sharded buffer pool.
type File struct {
	back   backing
	npages atomic.Uint32
	shards []shard
	mask   uint32 // len(shards)-1; shard of page id is id&mask
	stats  fileStats
}

// shard is one lock stripe of the pool: a frame map plus an LRU list,
// guarded by its own mutex. Frames are looked up, pinned and unpinned
// under mu; callbacks run outside it. The traffic counters are atomics
// so ShardStats snapshots never take the shard locks.
type shard struct {
	mu      sync.Mutex
	pool    map[PageID]*frame
	lruHead *frame // most recently used
	lruTail *frame // least recently used
	cap     int
	idle    []*frame // unpinned frames DropCache took out of the pool, for reuse

	reads     atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

func (sh *shard) statsSnapshot() ShardStats {
	return ShardStats{
		Reads:     sh.reads.Load(),
		Misses:    sh.misses.Load(),
		Evictions: sh.evictions.Load(),
	}
}

type frame struct {
	id         PageID
	data       []byte
	dirty      bool
	pins       int // readers currently outside the shard lock; guarded by shard.mu
	prev, next *frame
}

// DefaultPoolPages is the default buffer pool capacity in pages (4 MiB).
const DefaultPoolPages = 512

// nextPow2 returns the smallest power of two >= n (n >= 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// OpenConfig opens (or creates) a paged file at path with an explicit
// pool configuration.
func OpenConfig(path string, cfg Config) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("pager: open %s: %w", path, err)
	}
	info, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("pager: stat %s: %w", path, err)
	}
	if info.Size()%PageSize != 0 {
		_ = f.Close()
		return nil, fmt.Errorf("pager: %s: size %d is not a multiple of the page size", path, info.Size())
	}
	return newFile(f, uint32(info.Size()/PageSize), cfg), nil
}

// OpenMem returns a paged file backed by memory, for tests and ephemeral
// stores. Pool misses still count, so access statistics remain meaningful.
func OpenMem(poolPages int) *File {
	return newFile(&memBacking{}, 0, Config{PoolPages: poolPages})
}

func newFile(b backing, npages uint32, cfg Config) *File {
	poolPages := cfg.PoolPages
	if poolPages <= 0 {
		poolPages = DefaultPoolPages
	}
	nshards := nextPow2(runtime.GOMAXPROCS(0))
	// A shard needs at least one frame of capacity; tiny pools get fewer
	// shards rather than a silently inflated capacity.
	for nshards > 1 && nshards > poolPages {
		nshards >>= 1
	}
	f := &File{
		back:   b,
		shards: make([]shard, nshards),
		mask:   uint32(nshards - 1),
	}
	f.npages.Store(npages)
	for i := range f.shards {
		// Distribute the capacity; the first poolPages%nshards shards
		// absorb the remainder so the total is exactly poolPages.
		c := poolPages / nshards
		if i < poolPages%nshards {
			c++
		}
		f.shards[i] = shard{pool: make(map[PageID]*frame, c), cap: c}
	}
	return f
}

// shardOf returns the shard owning page id.
func (f *File) shardOf(id PageID) *shard { return &f.shards[uint32(id)&f.mask] }

// NumShards returns the number of pool shards (for tests and tuning).
func (f *File) NumShards() int { return len(f.shards) }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() uint32 { return f.npages.Load() }

// Stats returns a snapshot of the access statistics: the file-level
// counters plus the per-shard reads/misses/evictions summed across
// shards.
func (f *File) Stats() Stats {
	s := Stats{
		Writes:     f.stats.writes.Load(),
		Allocs:     f.stats.allocs.Load(),
		BytesRead:  f.stats.bytesRead.Load(),
		BytesWrite: f.stats.bytesWrite.Load(),
	}
	for i := range f.shards {
		sh := f.shards[i].statsSnapshot()
		s.Reads += sh.Reads
		s.Misses += sh.Misses
		s.Evictions += sh.Evictions
	}
	return s
}

// ShardStats returns a snapshot of each pool shard's traffic, indexed
// like the shards themselves (page id & mask). The snapshot is taken
// lock-free shard by shard; under concurrent traffic the per-shard rows
// may be skewed against each other, but each row is self-consistent and
// the totals match what Stats aggregates.
func (f *File) ShardStats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i := range f.shards {
		out[i] = f.shards[i].statsSnapshot()
	}
	return out
}

// ResetStats zeroes the access statistics (the buffer pool contents are
// kept; use DropCache to empty the pool as well).
func (f *File) ResetStats() {
	f.stats.reset()
	for i := range f.shards {
		sh := &f.shards[i]
		sh.reads.Store(0)
		sh.misses.Store(0)
		sh.evictions.Store(0)
	}
}

// DropCache flushes and evicts every pooled page, simulating a cold cache.
// The paper's experiments run on a cold cache (§5.1). A dirty-page write
// error does not abort the drain: every frame is still dropped, and the
// first error is returned. Unpinned frames go to the shard's idle list
// for later misses to reuse. Concurrent readers are unaffected — their
// pinned frames keep valid buffers, which are discarded rather than
// reused (see the package documentation).
func (f *File) DropCache() error {
	var firstErr error
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for id, fr := range sh.pool {
			if fr.dirty {
				if err := f.writeFrame(fr); err != nil && firstErr == nil {
					firstErr = err
				}
			}
			sh.lruUnlink(fr)
			delete(sh.pool, id)
			if fr.pins == 0 {
				sh.idle = append(sh.idle, fr)
			}
		}
		sh.mu.Unlock()
	}
	return firstErr
}

// Alloc allocates a fresh zeroed page and returns its id.
func (f *File) Alloc() (PageID, error) {
	id := PageID(f.npages.Add(1) - 1)
	f.stats.allocs.Add(1)
	sh := f.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fr, err := f.frameFor(sh, id, false)
	if err != nil {
		return 0, err
	}
	for i := range fr.data {
		fr.data[i] = 0
	}
	fr.dirty = true
	return id, nil
}

// Read copies page id into a caller-owned buffer of PageSize bytes.
func (f *File) Read(id PageID, dst []byte) error {
	return f.ReadCounted(id, dst, nil)
}

// ReadCounted is Read with per-caller page accounting: the request (and
// miss, if any) is also recorded in c when c is non-nil.
func (f *File) ReadCounted(id PageID, dst []byte, c *Counters) error {
	return f.ViewCounted(id, c, func(page []byte) error {
		copy(dst, page)
		return nil
	})
}

// View calls fn with the contents of page id. The slice is only valid for
// the duration of the call and must not be modified.
func (f *File) View(id PageID, fn func(page []byte) error) error {
	return f.ViewCounted(id, nil, fn)
}

// ViewCounted is View with per-caller page accounting into c (nil c
// counts only into the file's lifetime Stats). The frame is pinned and
// the shard lock released before fn runs, so concurrent views of
// different pages — including their backing-store misses — overlap.
func (f *File) ViewCounted(id PageID, c *Counters, fn func(page []byte) error) error {
	sh := f.shardOf(id)
	sh.mu.Lock()
	fr, err := f.pageIn(sh, id, c)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	fr.pins++
	sh.mu.Unlock()
	// Unpin via defer: a panicking callback (or runtime.Goexit from a
	// test helper) must not leave the frame eviction-exempt forever.
	defer func() {
		sh.mu.Lock()
		fr.pins--
		sh.mu.Unlock()
	}()
	return fn(fr.data)
}

// Update calls fn with the mutable contents of page id and marks it
// dirty. Like View it pins the frame and runs fn outside the shard lock;
// callers must not update a page that concurrent readers may be viewing
// (BLAS builds single-threaded, then reads immutably).
func (f *File) Update(id PageID, fn func(page []byte) error) error {
	sh := f.shardOf(id)
	sh.mu.Lock()
	fr, err := f.pageIn(sh, id, nil)
	if err != nil {
		sh.mu.Unlock()
		return err
	}
	fr.dirty = true
	fr.pins++
	sh.mu.Unlock()
	defer func() {
		sh.mu.Lock()
		fr.pins--
		sh.mu.Unlock()
	}()
	return fn(fr.data)
}

// pageIn returns the frame for id, fetching it on a miss.
// Caller holds sh.mu; sh owns id.
func (f *File) pageIn(sh *shard, id PageID, c *Counters) (*frame, error) {
	if id >= PageID(f.npages.Load()) {
		return nil, fmt.Errorf("pager: page %d out of range (have %d)", id, f.npages.Load())
	}
	sh.reads.Add(1)
	if fr, ok := sh.pool[id]; ok {
		sh.lruTouch(fr)
		c.count(false)
		return fr, nil
	}
	sh.misses.Add(1)
	c.count(true)
	return f.frameFor(sh, id, true)
}

// frameFor finds a frame for id, evicting if necessary, optionally
// loading the page contents from the backing store. Pinned frames are
// never chosen as eviction victims — their buffers are in use outside
// the lock — so an all-pinned shard grows past its capacity transiently
// instead. A frame that evicts nothing comes from the idle list when
// DropCache left one there, and is allocated otherwise. Caller holds
// sh.mu; sh owns id.
func (f *File) frameFor(sh *shard, id PageID, load bool) (*frame, error) {
	if fr, ok := sh.pool[id]; ok {
		sh.lruTouch(fr)
		return fr, nil
	}
	var fr *frame
	// Evict least-recently-used unpinned frames until the insert below
	// lands within capacity. Usually that is one eviction (or none), but
	// a shard that overflowed while all its frames were pinned shrinks
	// back here as soon as pins release. The first victim's buffer is
	// reused; surplus victims are dropped for the GC.
	for len(sh.pool) >= sh.cap {
		victim := sh.lruTail
		for victim != nil && victim.pins > 0 {
			victim = victim.prev
		}
		if victim == nil {
			break // every frame pinned: grow transiently
		}
		if victim.dirty {
			if err := f.writeFrame(victim); err != nil {
				return nil, err
			}
		}
		sh.lruUnlink(victim)
		delete(sh.pool, victim.id)
		sh.evictions.Add(1)
		if fr == nil {
			fr = victim
			fr.dirty = false
		}
	}
	if fr == nil {
		if n := len(sh.idle); n > 0 {
			fr = sh.idle[n-1]
			sh.idle[n-1] = nil
			sh.idle = sh.idle[:n-1]
			fr.dirty = false
		} else {
			fr = &frame{data: make([]byte, PageSize)}
		}
	}
	fr.id = id
	if load {
		n, err := f.back.ReadAt(fr.data, int64(id)*PageSize)
		if err != nil && !(err == io.EOF && n == 0) && err != io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("pager: read page %d: %w", id, err)
		}
		// Pages past the materialized end of file read as zeroes.
		for i := n; i < PageSize; i++ {
			fr.data[i] = 0
		}
		f.stats.bytesRead.Add(PageSize)
	}
	sh.pool[id] = fr
	sh.lruPush(fr)
	return fr, nil
}

// writeFrame flushes one dirty frame. Caller holds the owning shard's mu
// (the backing store is itself safe for concurrent WriteAt calls from
// different shards).
func (f *File) writeFrame(fr *frame) error {
	if _, err := f.back.WriteAt(fr.data, int64(fr.id)*PageSize); err != nil {
		return fmt.Errorf("pager: write page %d: %w", fr.id, err)
	}
	fr.dirty = false
	f.stats.writes.Add(1)
	f.stats.bytesWrite.Add(PageSize)
	return nil
}

// Flush writes all dirty pages to the backing store and syncs it.
func (f *File) Flush() error {
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.pool {
			if fr.dirty {
				if err := f.writeFrame(fr); err != nil {
					sh.mu.Unlock()
					return err
				}
			}
		}
		sh.mu.Unlock()
	}
	return f.back.Sync()
}

// Close flushes and closes the file.
func (f *File) Close() error {
	if err := f.Flush(); err != nil {
		_ = f.back.Close()
		return err
	}
	return f.back.Close()
}

// --- LRU list maintenance (caller holds the shard's mu) ---

func (sh *shard) lruPush(fr *frame) {
	fr.prev = nil
	fr.next = sh.lruHead
	if sh.lruHead != nil {
		sh.lruHead.prev = fr
	}
	sh.lruHead = fr
	if sh.lruTail == nil {
		sh.lruTail = fr
	}
}

func (sh *shard) lruUnlink(fr *frame) {
	if fr.prev != nil {
		fr.prev.next = fr.next
	} else if sh.lruHead == fr {
		sh.lruHead = fr.next
	}
	if fr.next != nil {
		fr.next.prev = fr.prev
	} else if sh.lruTail == fr {
		sh.lruTail = fr.prev
	}
	fr.prev, fr.next = nil, nil
}

func (sh *shard) lruTouch(fr *frame) {
	if sh.lruHead == fr {
		return
	}
	sh.lruUnlink(fr)
	sh.lruPush(fr)
}

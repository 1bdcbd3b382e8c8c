package pager

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func TestAllocReadWriteMem(t *testing.T) {
	f := OpenMem(4)
	defer f.Close()

	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 {
		t.Fatalf("first page id = %d", id)
	}
	if err := f.Update(id, func(p []byte) error {
		copy(p, "hello page")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := f.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf, []byte("hello page")) {
		t.Fatalf("read back %q", buf[:16])
	}
}

func TestOutOfRange(t *testing.T) {
	f := OpenMem(4)
	defer f.Close()
	if err := f.Read(0, make([]byte, PageSize)); err == nil {
		t.Fatal("expected out-of-range error")
	}
}

func TestEvictionAndCounters(t *testing.T) {
	f := OpenMem(2) // tiny pool to force eviction
	defer f.Close()

	var ids []PageID
	for i := 0; i < 4; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error {
			p[0] = byte(i + 1)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// All four pages must read back correctly despite evictions.
	for i, id := range ids {
		buf := make([]byte, PageSize)
		if err := f.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d byte = %d, want %d", id, buf[0], i+1)
		}
	}
	st := f.Stats()
	if st.Evictions == 0 {
		t.Fatal("expected evictions with pool of 2 and 4 pages")
	}
	if st.Misses == 0 {
		t.Fatal("expected misses after eviction")
	}
	if st.Reads < st.Misses {
		t.Fatalf("reads %d < misses %d", st.Reads, st.Misses)
	}
}

func TestHitsNoMissWhenResident(t *testing.T) {
	f := OpenMem(8)
	defer f.Close()
	id, _ := f.Alloc()
	_ = f.Update(id, func(p []byte) error { p[0] = 9; return nil })
	f.ResetStats()
	buf := make([]byte, PageSize)
	for i := 0; i < 5; i++ {
		if err := f.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := f.Stats()
	if st.Misses != 0 {
		t.Fatalf("misses = %d, want 0 (page resident)", st.Misses)
	}
	if st.Hits() != 5 {
		t.Fatalf("hits = %d, want 5", st.Hits())
	}
}

func TestDropCacheForcesColdReads(t *testing.T) {
	f := OpenMem(8)
	defer f.Close()
	id, _ := f.Alloc()
	_ = f.Update(id, func(p []byte) error { p[0] = 7; return nil })
	if err := f.DropCache(); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()
	buf := make([]byte, PageSize)
	if err := f.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 7 {
		t.Fatal("data lost across DropCache")
	}
	if f.Stats().Misses != 1 {
		t.Fatalf("misses = %d, want 1 after cold cache", f.Stats().Misses)
	}
}

func TestDiskPersistence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data.pg")
	f, err := OpenConfig(path, Config{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 10; i++ {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error {
			p[100] = byte(i * 3)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := OpenConfig(path, Config{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	if f2.NumPages() != 10 {
		t.Fatalf("NumPages = %d, want 10", f2.NumPages())
	}
	buf := make([]byte, PageSize)
	for i, id := range ids {
		if err := f2.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[100] != byte(i*3) {
			t.Fatalf("page %d: byte = %d, want %d", id, buf[100], i*3)
		}
	}
}

func TestOpenRejectsCorruptSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pg")
	f, err := OpenConfig(path, Config{PoolPages: 4})
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	// Append garbage to desync the size.
	if err := appendByte(path); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenConfig(path, Config{PoolPages: 4}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
}

func TestRandomizedPagesAgainstShadow(t *testing.T) {
	f := OpenMem(3)
	defer f.Close()
	r := rand.New(rand.NewSource(5))
	shadow := map[PageID][]byte{}
	var ids []PageID
	for step := 0; step < 2000; step++ {
		switch {
		case len(ids) == 0 || r.Intn(10) == 0:
			id, err := f.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			shadow[id] = make([]byte, PageSize)
		case r.Intn(2) == 0: // write
			id := ids[r.Intn(len(ids))]
			off := r.Intn(PageSize)
			b := byte(r.Intn(256))
			if err := f.Update(id, func(p []byte) error {
				p[off] = b
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			shadow[id][off] = b
		default: // read & verify
			id := ids[r.Intn(len(ids))]
			if err := f.View(id, func(p []byte) error {
				if !bytes.Equal(p, shadow[id]) {
					t.Fatalf("step %d: page %d diverged from shadow", step, id)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestShardCountCappedByPoolSize(t *testing.T) {
	// Eight CPUs would ask for eight shards.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	f := OpenMem(2)
	defer f.Close()
	if got := f.NumShards(); got > 2 {
		t.Fatalf("NumShards = %d, want <= PoolPages (2)", got)
	}
}

// TestViewSurvivesDropCache exercises the pin contract directly: a view
// callback that drops the whole cache mid-read must keep seeing its own
// page's bytes (the frame's buffer is discarded, never reused), and the
// page must still read back correctly afterwards.
func TestViewSurvivesDropCache(t *testing.T) {
	f := OpenMem(4)
	defer f.Close()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(id, func(p []byte) error { p[0] = 42; return nil }); err != nil {
		t.Fatal(err)
	}
	err = f.View(id, func(p []byte) error {
		if p[0] != 42 {
			t.Fatalf("before drop: p[0] = %d", p[0])
		}
		if err := f.DropCache(); err != nil {
			return err
		}
		if p[0] != 42 {
			t.Fatalf("after drop: pinned view lost its data (p[0] = %d)", p[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, PageSize)
	if err := f.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 42 {
		t.Fatalf("reread after drop: byte = %d, want 42", buf[0])
	}
	if f.Stats().Misses == 0 {
		t.Fatal("expected a miss after DropCache")
	}
}

// TestColdRereadReusesFrames: after DropCache every miss takes a frame
// the drop left idle, so re-reading a dropped working set allocates no
// page buffer, and every page still reads back its own bytes.
func TestColdRereadReusesFrames(t *testing.T) {
	const pages = 64
	f := OpenMem(pages)
	defer f.Close()
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error { p[0], p[PageSize-1] = byte(i), byte(i+1); return nil }); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var bad error
	check := func(i int) func([]byte) error {
		return func(p []byte) error {
			if p[0] != byte(i) || p[PageSize-1] != byte(i+1) {
				bad = fmt.Errorf("page %d reads %d/%d", ids[i], p[0], p[PageSize-1])
			}
			return nil
		}
	}
	checks := make([]func([]byte) error, pages)
	for i := range checks {
		checks[i] = check(i)
	}
	round := func() {
		if err := f.DropCache(); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if err := f.View(id, checks[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // writes the dirty pages back and sizes the idle lists
	before := f.Stats()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	const rounds = 10
	for range rounds {
		round()
	}
	runtime.ReadMemStats(&mem1)
	if bad != nil {
		t.Fatal(bad)
	}
	if misses := f.Stats().Misses - before.Misses; misses != rounds*pages {
		t.Fatalf("%d misses, want %d: every re-read after a drop is cold", misses, rounds*pages)
	}
	if grown := mem1.TotalAlloc - mem0.TotalAlloc; grown >= PageSize {
		t.Errorf("%d cold re-reads allocated %d bytes: at least one fresh frame", rounds*pages, grown)
	}
}

// TestPinnedFrameNeverReused: a frame pinned while DropCache runs is
// discarded, not put on the idle list, so the misses that follow never
// load another page into the buffer its reader is still looking at. Run
// under -race, a reuse also shows as a write racing the pinned read.
func TestPinnedFrameNeverReused(t *testing.T) {
	const pages = 16
	f := OpenMem(pages)
	defer f.Close()
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error { clear(p); p[0] = byte(i + 1); return nil }); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	pinned, done := make(chan []byte), make(chan struct{})
	viewErr := make(chan error, 1)
	go func() {
		viewErr <- f.View(ids[0], func(p []byte) error {
			pinned <- p
			<-done
			want := make([]byte, PageSize)
			want[0] = 1
			if !bytes.Equal(p, want) {
				return fmt.Errorf("pinned page changed after the drop: byte 0 = %d", p[0])
			}
			return nil
		})
	}()
	p := <-pinned
	for round := 0; round < 3; round++ {
		if err := f.DropCache(); err != nil {
			t.Fatal(err)
		}
		for _, id := range ids[1:] {
			if err := f.View(id, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	if err := <-viewErr; err != nil {
		t.Fatal(err)
	}
	// The discarded buffer is in neither a pool nor an idle list.
	if err := f.DropCache(); err != nil {
		t.Fatal(err)
	}
	for i := range f.shards {
		sh := &f.shards[i]
		sh.mu.Lock()
		for _, fr := range sh.idle {
			if &fr.data[0] == &p[0] {
				t.Error("the frame pinned during DropCache is on the idle list")
			}
		}
		sh.mu.Unlock()
	}
}

// TestEvictionSkipsPinnedFrame pins one page and then drives enough
// traffic through the pool to evict everything evictable; the pinned
// page's buffer must stay intact throughout.
func TestEvictionSkipsPinnedFrame(t *testing.T) {
	f := OpenMem(2)
	defer f.Close()
	const pages = 8
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error { p[0] = byte(i + 1); return nil }); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	err := f.View(ids[0], func(p []byte) error {
		// Touch every other page; a two-page pool evicts on nearly every
		// access, but never the pinned frame.
		for round := 0; round < 3; round++ {
			for i := 1; i < pages; i++ {
				if err := f.View(ids[i], func(q []byte) error {
					if q[0] != byte(i+1) {
						t.Fatalf("page %d: byte = %d, want %d", ids[i], q[0], i+1)
					}
					return nil
				}); err != nil {
					return err
				}
			}
			if p[0] != 1 {
				t.Fatalf("round %d: pinned page corrupted (byte = %d)", round, p[0])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Stats().Evictions == 0 {
		t.Fatal("expected evictions under cache pressure")
	}
}

func appendByte(path string) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = f.Write([]byte{0xAB})
	return err
}

// TestShardStatsAggregate pins the per-shard counter contract: File.Stats
// reads/misses/evictions are exactly the sum over ShardStats, requests
// actually land on the shard owning the page, and ResetStats zeroes the
// shard counters too.
func TestShardStatsAggregate(t *testing.T) {
	const pages = 32
	f := OpenMem(8)
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := f.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Update(id, func(p []byte) error { p[0] = byte(i); return nil }); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := f.DropCache(); err != nil {
		t.Fatal(err)
	}
	f.ResetStats()

	// Two sweeps: the first misses everywhere (pool is cold and smaller
	// than the file, with evictions), the second adds reads on every shard.
	for round := 0; round < 2; round++ {
		for _, id := range ids {
			if err := f.View(id, func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		}
	}

	shards := f.ShardStats()
	if len(shards) != f.NumShards() {
		t.Fatalf("ShardStats has %d rows, NumShards = %d", len(shards), f.NumShards())
	}
	var sum ShardStats
	for i, sh := range shards {
		if sh.Reads == 0 {
			t.Errorf("shard %d saw no reads; expected the sweep to hit every stripe", i)
		}
		sum.Reads += sh.Reads
		sum.Misses += sh.Misses
		sum.Evictions += sh.Evictions
	}
	st := f.Stats()
	if st.Reads != sum.Reads || st.Misses != sum.Misses || st.Evictions != sum.Evictions {
		t.Fatalf("Stats (%d/%d/%d) != shard sums (%d/%d/%d)",
			st.Reads, st.Misses, st.Evictions, sum.Reads, sum.Misses, sum.Evictions)
	}
	if st.Reads != 2*pages {
		t.Errorf("reads = %d, want %d", st.Reads, 2*pages)
	}
	if st.Misses == 0 || st.Evictions == 0 {
		t.Errorf("cold sweep over an 8-frame pool should miss and evict (misses %d, evictions %d)", st.Misses, st.Evictions)
	}

	f.ResetStats()
	st = f.Stats()
	if st.Reads != 0 || st.Misses != 0 || st.Evictions != 0 {
		t.Fatalf("after ResetStats: %+v", st)
	}
	for i, sh := range f.ShardStats() {
		if sh != (ShardStats{}) {
			t.Fatalf("after ResetStats shard %d = %+v", i, sh)
		}
	}
}

// TestMemBackingGrowsGeometrically: page-at-a-time appends (what an
// in-memory build does) must not reallocate the whole buffer per page,
// and the bytes must read back; a Truncate followed by a write past the
// new end must expose zeros in the gap, not the bytes that were cut off.
func TestMemBackingGrowsGeometrically(t *testing.T) {
	m := &memBacking{}
	page := make([]byte, PageSize)
	const pages = 512
	reallocs, lastCap := 0, 0
	for i := 0; i < pages; i++ {
		for j := range page {
			page[j] = byte(i)
		}
		if _, err := m.WriteAt(page, int64(i)*PageSize); err != nil {
			t.Fatal(err)
		}
		if cap(m.buf) != lastCap {
			reallocs++
			lastCap = cap(m.buf)
		}
	}
	if reallocs > 12 {
		t.Errorf("%d page appends reallocated the buffer %d times, want O(log n)", pages, reallocs)
	}
	if len(m.buf) != pages*PageSize {
		t.Fatalf("len = %d, want %d", len(m.buf), pages*PageSize)
	}
	got := make([]byte, PageSize)
	for _, i := range []int{0, 1, 255, pages - 1} {
		if _, err := m.ReadAt(got, int64(i)*PageSize); err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) || got[PageSize-1] != byte(i) {
			t.Fatalf("page %d reads back as %d..%d", i, got[0], got[PageSize-1])
		}
	}

	if err := m.Truncate(2 * PageSize); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadAt(got, 2*PageSize); err == nil {
		t.Error("read past a truncation succeeded")
	}
	// Write page 4, leaving page 2..3 as a hole inside the old capacity.
	if _, err := m.WriteAt(page, 4*PageSize); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{2, 3} {
		if _, err := m.ReadAt(got, int64(i)*PageSize); err != nil {
			t.Fatal(err)
		}
		for j, b := range got {
			if b != 0 {
				t.Fatalf("hole page %d byte %d = %d after truncate+extend, want 0", i, j, b)
			}
		}
	}
}

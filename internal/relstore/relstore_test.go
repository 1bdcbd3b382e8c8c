package relstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/keyenc"
	"repro/internal/pager"
	"repro/internal/pbtree"
	"repro/internal/uint128"
)

func u(v uint64) uint128.Uint128 { return uint128.From64(v) }

// makeRecords builds n records with plabel = i/10 (runs of 10 share one
// plabel), tag = i%7, start = 2i+1, end = 2i+2.
func makeRecords(n int) []Record {
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		recs[i] = Record{
			PLabel: u(uint64(i / 10)),
			TagID:  uint32(i%7) + 1,
			Start:  uint32(2*i + 1),
			End:    uint32(2*i + 2),
			Level:  uint16(i%5) + 1,
			Data:   fmt.Sprintf("val-%d", i%13),
		}
	}
	return recs
}

// collect drains a cursor.
func collect(t testing.TB, c *Cursor) []Record {
	t.Helper()
	recs, err := drainCursor(c)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// scanAll drains a whole relation in cluster-key order.
func scanAll(t testing.TB, r *Relation) []Record {
	t.Helper()
	recs, err := collectRun(r.ScanAllBatch(nil), 0)
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// rangeLabels returns the P-labels of the runs a range selection's
// skip scan opens, in label order.
func rangeLabels(t testing.TB, r *Relation, ctx *ExecContext, lo, hi uint128.Uint128) []uint128.Uint128 {
	t.Helper()
	c, err := r.PLabelRange(lo, hi).Open(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var labels []uint128.Uint128
	for i := range c.runs {
		labels = append(labels, c.runs[i].plabel)
	}
	return labels
}

// scanPLabelRange returns the records with lo <= plabel <= hi in
// (plabel, start) order: one exact scan per distinct label.
func scanPLabelRange(t testing.TB, r *Relation, ctx *ExecContext, lo, hi uint128.Uint128) []Record {
	t.Helper()
	var out []Record
	for _, p := range rangeLabels(t, r, ctx, lo, hi) {
		out = append(out, collect(t, exact(r, ctx, p))...)
	}
	return out
}

// dataIndexRecords resolves SP's data-index entries for value to their
// heap records, in (data, start) index order, one heap page view per
// entry.
func dataIndexRecords(t testing.TB, r *Relation, value string) []Record {
	t.Helper()
	prefix := keyenc.String(value)
	var out []Record
	for from := prefix; ; {
		k, v, ok, err := r.dataIdx.Seek(from, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || !bytes.HasPrefix(k, prefix) {
			return out
		}
		from = append(k, 0) // the next key
		loc := decodeLocator(v)
		var rec [1]Record
		if err := r.f.View(loc.Page, func(p []byte) error {
			return decodeColSlots(p, r.meta.kind, int(loc.Slot), int(loc.Slot)+1, rec[:])
		}); err != nil {
			t.Fatal(err)
		}
		out = append(out, rec[0])
	}
}

func buildSP(t testing.TB, recs []Record) *Relation {
	t.Helper()
	f := pager.OpenMem(256)
	r, err := Build(f, ClusterPLabel, recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestBuildAndCount(t *testing.T) {
	r := buildSP(t, makeRecords(1000))
	if r.Count() != 1000 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Kind() != ClusterPLabel {
		t.Fatalf("Kind = %v", r.Kind())
	}
}

func TestBuildEmpty(t *testing.T) {
	r := buildSP(t, nil)
	if r.Count() != 0 {
		t.Fatal("count")
	}
	got, err := collectRun(r.ScanAllBatch(nil), 0)
	if err != nil || len(got) != 0 {
		t.Fatalf("scan of empty relation: %d records, %v", len(got), err)
	}
}

func TestScanAllOrdered(t *testing.T) {
	recs := makeRecords(500)
	// Shuffle the input: Build must sort.
	rand.New(rand.NewSource(1)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	r := buildSP(t, recs)
	got := scanAll(t, r)
	if len(got) != 500 {
		t.Fatalf("got %d records", len(got))
	}
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.PLabel.Cmp(b.PLabel) > 0 || (a.PLabel == b.PLabel && a.Start >= b.Start) {
			t.Fatalf("not in (plabel,start) order at %d: %v,%d then %v,%d", i, a.PLabel, a.Start, b.PLabel, b.Start)
		}
	}
}

func TestScanPLabelExact(t *testing.T) {
	r := buildSP(t, makeRecords(100))
	got := collect(t, exact(r, nil, u(3)))
	if len(got) != 10 {
		t.Fatalf("got %d records, want 10", len(got))
	}
	for i, rec := range got {
		if rec.PLabel != u(3) {
			t.Fatalf("record %d has plabel %v", i, rec.PLabel)
		}
		if i > 0 && got[i-1].Start >= rec.Start {
			t.Fatal("not start-ordered")
		}
	}
	// Missing plabel.
	got = collect(t, exact(r, nil, u(99)))
	if len(got) != 0 {
		t.Fatalf("missing plabel returned %d records", len(got))
	}
}

func TestScanPLabelRange(t *testing.T) {
	r := buildSP(t, makeRecords(100))
	got := scanPLabelRange(t, r, nil, u(2), u(4))
	if len(got) != 30 {
		t.Fatalf("got %d records, want 30", len(got))
	}
	for i, rec := range got {
		if rec.PLabel.Less(u(2)) || u(4).Less(rec.PLabel) {
			t.Fatalf("record out of range: %v", rec.PLabel)
		}
		if i > 0 && (got[i-1].PLabel.Cmp(rec.PLabel) > 0 || (got[i-1].PLabel == rec.PLabel && got[i-1].Start >= rec.Start)) {
			t.Fatalf("range not in (plabel,start) order at %d", i)
		}
	}
	// Inclusive bounds.
	got = scanPLabelRange(t, r, nil, u(9), u(9))
	if len(got) != 10 {
		t.Fatalf("inclusive range got %d", len(got))
	}
	// Empty range.
	got = scanPLabelRange(t, r, nil, u(50), u(60))
	if len(got) != 0 {
		t.Fatalf("empty range got %d", len(got))
	}
}

func TestScanTag(t *testing.T) {
	f := pager.OpenMem(256)
	recs := makeRecords(700)
	r, err := Build(f, ClusterTag, recs)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, tagged(r, nil, 3))
	want := 0
	for _, rec := range recs {
		if rec.TagID == 3 {
			want++
		}
	}
	if len(got) != want {
		t.Fatalf("got %d, want %d", len(got), want)
	}
	for i, rec := range got {
		if rec.TagID != 3 {
			t.Fatalf("record %d has tag %d", i, rec.TagID)
		}
		if i > 0 && got[i-1].Start >= rec.Start {
			t.Fatal("tag scan not start-ordered")
		}
	}
}

// TestScanData checks the data index: its entries for a value resolve
// to exactly that value's records in start order, and the planner's
// estimateData probe counts them.
func TestScanData(t *testing.T) {
	r := buildSP(t, makeRecords(130))
	got := dataIndexRecords(t, r, "val-5")
	if len(got) != 10 {
		t.Fatalf("got %d, want 10", len(got))
	}
	for i, rec := range got {
		if rec.Data != "val-5" {
			t.Fatalf("record %d data = %q", i, rec.Data)
		}
		if i > 0 && got[i-1].Start >= rec.Start {
			t.Fatal("data scan not start-ordered")
		}
	}
	if n, err := r.estimateData(nil, "val-5"); err != nil || n != 10 {
		t.Fatalf("estimateData(val-5) = %d, %v, want 10", n, err)
	}
	if got := dataIndexRecords(t, r, "absent"); len(got) != 0 {
		t.Fatal("absent value matched")
	}
}

func TestEmptyDataNotIndexed(t *testing.T) {
	recs := []Record{
		{PLabel: u(1), TagID: 1, Start: 1, End: 2, Level: 1, Data: ""},
		{PLabel: u(2), TagID: 1, Start: 3, End: 4, Level: 1, Data: "x"},
	}
	r := buildSP(t, recs)
	if got := dataIndexRecords(t, r, ""); len(got) != 0 {
		t.Fatalf("empty data indexed: %d", len(got))
	}
	if n, err := r.estimateData(nil, ""); err != nil || n != 0 {
		t.Fatalf("estimateData(\"\") = %d, %v, want 0", n, err)
	}
}

// TestDistinctPLabels checks the labels and the page reads of a range
// selection's skip scan, which opens its cursor's runs. Each probe is
// one Seek: a descent of the height-2 cluster index, plus one read when
// the next label heads the following leaf; the last probe finds the
// label past the range, or nothing. The counts pinned here are those of
// the leaf-copying index iterator the skip scan used before, so Seek
// reads exactly the same pages.
func TestDistinctPLabels(t *testing.T) {
	r := buildSP(t, makeRecords(5000))
	if h := r.meta.cluster.Height; h != 2 {
		t.Fatalf("cluster index height %d, want 2", h)
	}
	for _, tc := range []struct {
		lo, hi uint64
		labels int
		reads  uint64
	}{
		{2, 7, 6, 14},        // 7 probes on one leaf
		{0, 499, 500, 1011},  // 501 probes, 9 leaf hops
		{100, 400, 301, 610}, // 302 probes, 6 leaf hops
		{498, 600, 2, 6},     // the third probe is past the last entry
		{600, 700, 0, 2},     // one probe, past the last entry
	} {
		ctx := NewExecContext()
		got := rangeLabels(t, r, ctx, u(tc.lo), u(tc.hi))
		if len(got) != tc.labels {
			t.Fatalf("[%d, %d]: %d distinct plabels, want %d", tc.lo, tc.hi, len(got), tc.labels)
		}
		for i, p := range got {
			if p != u(tc.lo+uint64(i)) {
				t.Fatalf("[%d, %d]: plabel[%d] = %v", tc.lo, tc.hi, i, p)
			}
		}
		if reads := ctx.PageReads(); reads != tc.reads {
			t.Errorf("[%d, %d]: %d page reads, want %d", tc.lo, tc.hi, reads, tc.reads)
		}
	}
}

func TestScanPLabelRangeByStart(t *testing.T) {
	// Records with interleaved starts across plabels: plabel i/10 with
	// start 2i+1 means plabel runs have consecutive start blocks; make it
	// adversarial with a custom layout instead.
	var recs []Record
	n := 0
	for p := 0; p < 5; p++ {
		for k := 0; k < 20; k++ {
			recs = append(recs, Record{
				PLabel: u(uint64(p)),
				TagID:  1,
				Start:  uint32(p + 5*k + 1), // interleaved round-robin
				End:    uint32(1000 + n),
				Level:  2,
			})
			n++
		}
	}
	r := buildSP(t, recs)
	// A P-label range in document order: one exact scan per distinct
	// label, merged by start — how a range fragment's stream is built.
	byStart := func(lo, hi uint128.Uint128) []Record {
		t.Helper()
		c, err := r.PLabelRange(lo, hi).Open(nil)
		if err != nil {
			t.Fatal(err)
		}
		return collect(t, c)
	}
	got := byStart(u(1), u(3))
	if len(got) != 60 {
		t.Fatalf("got %d records, want 60", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].Start >= got[i].Start {
			t.Fatalf("merge not start-ordered at %d: %d then %d", i, got[i-1].Start, got[i].Start)
		}
	}
	// Single-plabel fast path.
	if got := byStart(u(2), u(2)); len(got) != 20 {
		t.Fatalf("single-run got %d", len(got))
	}
	// Empty range.
	if got := byStart(u(100), u(200)); len(got) != 0 {
		t.Fatalf("empty merged range yielded %d records", len(got))
	}
}

func TestVisitedCounter(t *testing.T) {
	r := buildSP(t, makeRecords(100))
	ctx := NewExecContext()
	collect(t, exact(r, ctx, u(1)))
	if got := ctx.Visited(); got != 10 {
		t.Fatalf("visited = %d, want 10", got)
	}
	if ctx.PageReads() == 0 {
		t.Fatal("scan recorded no page reads in its context")
	}
	// A fresh context starts at zero — and a nil context is valid.
	if NewExecContext().Visited() != 0 {
		t.Fatal("fresh context not zero")
	}
	collect(t, exact(r, nil, u(1)))
}

func TestExecContextIsolation(t *testing.T) {
	// Two contexts scanning the same relation never see each other's
	// counts — the property the old store-global counters lacked.
	r := buildSP(t, makeRecords(100))
	a, b := NewExecContext(), NewExecContext()
	collect(t, exact(r, a, u(1)))
	scanPLabelRange(t, r, b, u(2), u(4))
	if got := a.Visited(); got != 10 {
		t.Fatalf("ctx a visited = %d, want 10", got)
	}
	if got := b.Visited(); got != 30 {
		t.Fatalf("ctx b visited = %d, want 30", got)
	}
}

func TestPersistenceAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/sp.pg"
	f, err := pager.OpenConfig(path, pager.Config{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	recs := makeRecords(300)
	if _, err := Build(f, ClusterPLabel, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	f2, err := pager.OpenConfig(path, pager.Config{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	r, err := Open(f2)
	if err != nil {
		t.Fatal(err)
	}
	if r.Count() != 300 {
		t.Fatalf("count after reopen = %d", r.Count())
	}
	got, err := drainCursor(exact(r, nil, u(7)))
	if err != nil || len(got) != 10 {
		t.Fatalf("scan after reopen: %d, %v", len(got), err)
	}
	if got[0].Data == "" {
		t.Fatal("data lost")
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	f := pager.OpenMem(8)
	if _, err := f.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestLargeDataValues(t *testing.T) {
	recs := []Record{
		{PLabel: u(1), TagID: 1, Start: 1, End: 2, Level: 1, Data: string(make([]byte, 4000))},
		{PLabel: u(2), TagID: 1, Start: 3, End: 4, Level: 1, Data: "small"},
	}
	r := buildSP(t, recs)
	got, err := collectRun(r.ScanAllBatch(nil), 0)
	if err != nil || len(got) != 2 {
		t.Fatalf("got %d, %v", len(got), err)
	}
	if len(got[0].Data) != 4000 {
		t.Fatalf("large data truncated: %d", len(got[0].Data))
	}
}

func TestRecordTooLarge(t *testing.T) {
	f := pager.OpenMem(8)
	_, err := Build(f, ClusterPLabel, []Record{{PLabel: u(1), Start: 1, End: 2, Data: string(make([]byte, pager.PageSize))}})
	if err == nil {
		t.Fatal("expected record-too-large error")
	}
}

func TestClusteringReducesPageMisses(t *testing.T) {
	// The clustered plabel scan should touch far fewer pages than
	// fetching the same records scattered by start order.
	const n = 20000
	recs := make([]Record, n)
	for i := 0; i < n; i++ {
		recs[i] = Record{
			PLabel: u(uint64(i % 100)), // 100 source paths, 200 nodes each
			TagID:  uint32(i%50) + 1,
			Start:  uint32(i + 1),
			End:    uint32(n + i + 1),
			Level:  3,
			Data:   fmt.Sprintf("d%d", i),
		}
	}
	f := pager.OpenMem(16) // small pool to make misses visible
	r, err := Build(f, ClusterPLabel, recs)
	if err != nil {
		t.Fatal(err)
	}
	_ = f.DropCache()
	f.ResetStats()
	got := collect(t, exact(r, nil, u(5)))
	if len(got) != n/100 {
		t.Fatalf("got %d", len(got))
	}
	misses := f.Stats().Misses
	// 200 records of ~30 bytes fit in a handful of pages; add index
	// descent. Anything near 200 would mean clustering is broken.
	if misses > 20 {
		t.Fatalf("clustered scan took %d page misses for %d records", misses, len(got))
	}
}

func BenchmarkBuild10k(b *testing.B) {
	recs := makeRecords(10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := pager.OpenMem(1024)
		if _, err := Build(f, ClusterPLabel, recs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanPLabelExact(b *testing.B) {
	recs := makeRecords(100000)
	f := pager.OpenMem(4096)
	r, err := Build(f, ClusterPLabel, recs)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Record, BatchSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi := plabelRun(r, nil, u(uint64(i%10000)))
		for {
			n, err := bi.NextBatch(buf)
			if err != nil {
				b.Fatal(err)
			}
			if n == 0 {
				break
			}
		}
	}
}

func TestScanOrderedAfterShuffledBuildByTag(t *testing.T) {
	recs := makeRecords(400)
	rand.New(rand.NewSource(3)).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	f := pager.OpenMem(128)
	r, err := Build(f, ClusterTag, recs)
	if err != nil {
		t.Fatal(err)
	}
	got := scanAll(t, r)
	if len(got) != len(recs) {
		t.Fatalf("got %d records, want %d", len(got), len(recs))
	}
	ok := sort.SliceIsSorted(got, func(i, j int) bool {
		if got[i].TagID != got[j].TagID {
			return got[i].TagID < got[j].TagID
		}
		return got[i].Start < got[j].Start
	})
	if !ok {
		t.Fatal("SD relation not in (tag,start) order")
	}
}

// metaSlot reads the tree descriptor at byte offset off of r's meta
// page: 25 is the cluster slot, 41 the start slot, 57 the data slot.
func metaSlot(t *testing.T, f *pager.File, off int) pbtree.Tree {
	t.Helper()
	var tr pbtree.Tree
	if err := f.View(0, func(p []byte) error {
		tr = metaTree(p, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestRelationShape: Build writes only the trees that are read — the
// clustered index on both relations and the data index on SP — and
// leaves the start slot, and SD's data slot, zero trees. A relation
// whose meta page names a start tree and (on SD) a data tree, as a
// store built with them has, opens and scans the same records: Open
// ignores those slots and their trees are dead pages.
func TestRelationShape(t *testing.T) {
	recs := makeRecords(2000)
	for _, kind := range []Clustering{ClusterPLabel, ClusterTag} {
		f := pager.OpenMem(256)
		rel, err := Build(f, kind, recs)
		if err != nil {
			t.Fatal(err)
		}
		if tr := metaSlot(t, f, 25); tr.Count != uint64(len(recs)) {
			t.Fatalf("%v: cluster tree %+v, want %d entries", kind, tr, len(recs))
		}
		if tr := metaSlot(t, f, 41); tr != (pbtree.Tree{}) {
			t.Fatalf("%v: start slot holds %+v, want a zero tree", kind, tr)
		}
		data := metaSlot(t, f, 57)
		if kind == ClusterPLabel && data.Count != uint64(len(recs)) {
			t.Fatalf("SP: data tree %+v, want %d entries", data, len(recs))
		}
		if kind == ClusterTag && data != (pbtree.Tree{}) {
			t.Fatalf("SD: data slot holds %+v, want a zero tree", data)
		}
		before := scanAll(t, rel)

		// Write the trees a store built with a start index (both
		// relations) and an SD data index carries, and name them in the
		// meta page.
		pages, err := HeapPages(rel)
		if err != nil {
			t.Fatal(err)
		}
		type entry struct {
			rec Record
			loc Locator
		}
		var entries []entry
		for i, page := range pages {
			for slot, r := range page {
				entries = append(entries, entry{r, Locator{Page: rel.meta.heapFirst + pager.PageID(i), Slot: uint16(slot)}})
			}
		}
		load := func(key func(Record) []byte, less func(a, b Record) bool) pbtree.Tree {
			sorted := slices.Clone(entries)
			sort.Slice(sorted, func(i, j int) bool { return less(sorted[i].rec, sorted[j].rec) })
			b := pbtree.NewBuilder(f)
			for _, e := range sorted {
				if err := b.Add(key(e.rec), encodeLocator(e.loc)); err != nil {
					t.Fatal(err)
				}
			}
			tr, err := b.Finish()
			if err != nil {
				t.Fatal(err)
			}
			return tr
		}
		slots := map[int]pbtree.Tree{41: load(func(r Record) []byte { return keyenc.Uint32(r.Start) },
			func(a, b Record) bool { return a.Start < b.Start })}
		if kind == ClusterTag {
			slots[57] = load(func(r Record) []byte { return keyenc.New(nil).PutString(r.Data).PutUint32(r.Start).Bytes() },
				func(a, b Record) bool { return a.Data < b.Data || (a.Data == b.Data && a.Start < b.Start) })
		}
		if err := f.Update(0, func(p []byte) error {
			for off, tr := range slots {
				binary.LittleEndian.PutUint32(p[off:], uint32(tr.Root))
				binary.LittleEndian.PutUint32(p[off+4:], tr.Height)
				binary.LittleEndian.PutUint64(p[off+8:], tr.Count)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		old, err := Open(f)
		if err != nil {
			t.Fatalf("%v: open with start/data descriptors: %v", kind, err)
		}
		if !recordsEqual(scanAll(t, old), before) {
			t.Fatalf("%v: full scan differs once the meta page names the extra trees", kind)
		}
		for tag := uint32(1); tag <= 7 && kind == ClusterTag; tag++ {
			if !recordsEqual(collect(t, tagged(old, nil, tag)), collect(t, tagged(rel, nil, tag))) {
				t.Fatalf("SD: tag %d scan differs", tag)
			}
		}
		if kind == ClusterPLabel {
			if !recordsEqual(collect(t, exact(old, nil, u(17))), collect(t, exact(rel, nil, u(17)))) {
				t.Fatal("SP: plabel scan differs")
			}
			if n, err := old.estimateData(nil, "val-5"); err != nil || n == 0 {
				t.Fatalf("SP: estimateData(val-5) = %d, %v after reopen", n, err)
			}
		}
		if kind == ClusterTag && old.meta.data != (pbtree.Tree{}) {
			t.Fatalf("SD: Open read the data slot: %+v", old.meta.data)
		}
	}
}

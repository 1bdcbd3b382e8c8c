package relstore

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/pager"
	"repro/internal/uint128"
)

// genColumnarCorpus builds a randomized cluster-ordered corpus that
// exercises the columnar encoder's edge cases: single-record runs, runs
// long enough to span pages, empty values, values large enough to force
// a page break, and start gaps wide enough to need multi-byte deltas.
// Starts are globally unique so the same records are valid under both
// clusterings.
func genColumnarCorpus(rng *rand.Rand, nRuns int) []Record {
	var recs []Record
	start := uint32(1)
	for run := 0; run < nRuns; run++ {
		plabel := u(uint64(run + 1))
		tag := uint32(rng.Intn(13) + 1)
		count := 1
		switch rng.Intn(4) {
		case 1:
			count = rng.Intn(20) + 2
		case 2:
			count = rng.Intn(200) + 20
		case 3:
			count = rng.Intn(900) + 200 // spans multiple pages
		}
		for i := 0; i < count; i++ {
			var data string
			switch rng.Intn(5) {
			case 0: // empty
			case 1:
				data = strings.Repeat("x", rng.Intn(3000)+500) // forces page breaks
			default:
				data = strings.Repeat("v", rng.Intn(20))
			}
			recs = append(recs, Record{
				PLabel: plabel,
				TagID:  tag,
				Start:  start,
				End:    start + uint32(rng.Intn(1000)),
				Level:  uint16(rng.Intn(30) + 1),
				Data:   data,
			})
			start += uint32(rng.Intn(500) + 1) // 1-byte and multi-byte deltas
		}
	}
	return recs
}

func buildT(t testing.TB, kind Clustering, recs []Record) *Relation {
	t.Helper()
	r, err := Build(pager.OpenMem(1024), kind, recs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func drainBatch(t testing.TB, bi *heapRunIter, bufSize int) []Record {
	t.Helper()
	buf := make([]Record, bufSize)
	var out []Record
	for {
		n, err := bi.NextBatch(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return out
		}
		out = append(out, buf[:n]...)
	}
}

// sortedByCluster returns a copy of recs in the relation's cluster-key
// order: {plabel, start} on SP, {tag, start} on SD.
func sortedByCluster(kind Clustering, recs []Record) []Record {
	out := append([]Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if kind == ClusterPLabel && a.PLabel != b.PLabel {
			return a.PLabel.Less(b.PLabel)
		}
		if kind == ClusterTag && a.TagID != b.TagID {
			return a.TagID < b.TagID
		}
		return a.Start < b.Start
	})
	return out
}

// sortedByStart returns a copy of recs in document (start) order.
func sortedByStart(recs []Record) []Record {
	out := append([]Record(nil), recs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// filterRecs returns, in order, the records of recs that keep accepts:
// the in-memory answer of a selection scan.
func filterRecs(recs []Record, keep func(*Record) bool) []Record {
	var out []Record
	for i := range recs {
		r := &recs[i]
		if keep(r) {
			out = append(out, *r)
		}
	}
	return out
}

func hasPLabel(p uint128.Uint128) func(*Record) bool {
	return func(r *Record) bool { return r.PLabel == p }
}

// TestColumnarRoundTrip is the round-trip property test: records built
// into either relation must decode byte-identically to the input,
// sorted in memory, through every cluster scan path, and a full drain
// must visit each record exactly once.
func TestColumnarRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	recs := genColumnarCorpus(rng, 40)
	for _, kind := range []Clustering{ClusterPLabel, ClusterTag} {
		rel := buildT(t, kind, recs)
		want := sortedByCluster(kind, recs)

		ctx := NewExecContext()
		got, err := collectRun(rel.ScanAllBatch(ctx), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(got, want) {
			t.Fatalf("kind %v: ScanAllBatch differs from the input (%d vs %d records)", kind, len(got), len(want))
		}
		if ctx.Visited() != uint64(len(recs)) {
			t.Errorf("kind %v: full drain visited %d, want %d", kind, ctx.Visited(), len(recs))
		}

		if kind == ClusterPLabel {
			for _, p := range []uint128.Uint128{u(1), u(3), u(40), u(9999)} {
				got := drainBatch(t, plabelRun(rel, nil, p), 128)
				if w := filterRecs(want, hasPLabel(p)); !recordsEqual(got, w) {
					t.Fatalf("plabel %v: batch scan differs from the input (%d vs %d)", p, len(got), len(w))
				}
			}
		} else {
			for tag := uint32(1); tag <= 14; tag++ {
				got := drainBatch(t, tagRun(rel, nil, tag), 128)
				if w := filterRecs(want, func(r *Record) bool { return r.TagID == tag }); !recordsEqual(got, w) {
					t.Fatalf("tag %d: batch scan differs from the input (%d vs %d)", tag, len(got), len(w))
				}
			}
		}
	}
}

// TestFormatVersionMismatch: a store in any format but BLASREL2 — the
// retired BLASREL1 or one written by a newer build — must be rejected
// with an error that names its magic, the readable format, and points
// at rebuilding.
func TestFormatVersionMismatch(t *testing.T) {
	for _, magic := range []string{"BLASREL1", "BLASREL9"} {
		f := pager.OpenMem(64)
		if _, err := Build(f, ClusterPLabel, makeRecords(10)); err != nil {
			t.Fatal(err)
		}
		if err := f.Update(0, func(p []byte) error {
			copy(p, magic)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		_, err := Open(f)
		if err == nil {
			t.Fatalf("Open accepted page-format magic %s", magic)
		}
		for _, want := range []string{magic, "BLASREL2", "blasload"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("format-mismatch error %q does not mention %q", err, want)
			}
		}
	}
}

// TestBuildFormatRejectsUnknown: BuildFormat builds FormatColumnar and
// rejects every other format number, the retired format 1 included.
func TestBuildFormatRejectsUnknown(t *testing.T) {
	for _, format := range []int{0, 1, 3, -1} {
		if _, err := BuildFormat(pager.OpenMem(16), ClusterPLabel, nil, format); err == nil {
			t.Errorf("BuildFormat accepted format %d", format)
		}
	}
	r, err := BuildFormat(pager.OpenMem(16), ClusterPLabel, makeRecords(10), FormatColumnar)
	if err != nil || r.Count() != 10 {
		t.Fatalf("BuildFormat(FormatColumnar): %v", err)
	}
}

// FuzzColumnarRoundTrip builds a derived corpus and requires the full
// scan and an exact scan to equal the input sorted in memory.
// The corpus shape (run lengths, value sizes, start gaps) is derived
// from the fuzzed seed.
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add(int64(1), uint16(10))
	f.Add(int64(99), uint16(3))
	f.Add(int64(-7), uint16(60))
	f.Fuzz(func(t *testing.T, seed int64, nRuns uint16) {
		rng := rand.New(rand.NewSource(seed))
		recs := genColumnarCorpus(rng, int(nRuns%64))
		rel := buildT(t, ClusterPLabel, recs)
		sorted := sortedByCluster(ClusterPLabel, recs)
		ctx := NewExecContext()
		got, err := collectRun(rel.ScanAllBatch(ctx), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !recordsEqual(got, sorted) {
			t.Fatalf("full scan differs from the input: %d vs %d records", len(got), len(sorted))
		}
		if ctx.Visited() != uint64(len(recs)) {
			t.Fatalf("full drain visited %d, want %d", ctx.Visited(), len(recs))
		}
		if len(recs) > 0 {
			p := recs[rng.Intn(len(recs))].PLabel
			x := drainBatch(t, plabelRun(rel, nil, p), 64)
			if y := filterRecs(sorted, hasPLabel(p)); !recordsEqual(x, y) {
				t.Fatalf("exact scan differs from the input: %d vs %d records", len(x), len(y))
			}
		}
	})
}

// scanOutcome runs a drain and reports its error, turning a panic into
// a failure message and giving up on a scan that never ends.
func scanOutcome(drain func() ([]Record, error)) (err error, failure string) {
	type result struct {
		err     error
		failure string
	}
	done := make(chan result, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				done <- result{failure: fmt.Sprintf("panicked: %v", p)}
			}
		}()
		_, err := drain()
		done <- result{err: err}
	}()
	select {
	case r := <-done:
		return r.err, r.failure
	case <-time.After(10 * time.Second):
		return nil, "hung"
	}
}

// TestCorruptColumnarPageErrors damages the first heap page of a built
// relation in the ways the decoder must check once per page or run —
// an oversized run directory, a run block or column past the page end,
// an SD plabel column that does not fit, runs that leave slots
// uncovered — and requires every scan path that reads the page to
// return an error: never a panic, a hang or silently wrong records.
func TestCorruptColumnarPageErrors(t *testing.T) {
	le16 := binary.LittleEndian.PutUint16
	runOff := func(p []byte, ri int) int { return int(binary.LittleEndian.Uint16(p[colPageHeader+colRunDirEnt*ri:])) }
	cases := []struct {
		name         string
		kinds        []Clustering // nil = both
		run          int          // the run the corruption hits; the exact scan selects its prefix
		fullWalkOnly bool         // only ScanAllBatch reaches the damage
		corrupt      func(kind Clustering, p []byte)
	}{
		{"run-count", nil, 0, false, func(_ Clustering, p []byte) { le16(p[2:4], 0xFFFF) }},
		{"block-offset", nil, 0, false, func(_ Clustering, p []byte) { le16(p[colPageHeader:], 0xFFFF) }},
		{"starts-length", nil, 0, false, func(kind Clustering, p []byte) {
			if kind == ClusterPLabel {
				le16(p[runOff(p, 0)+22:], 0xFFFF)
			} else {
				le16(p[runOff(p, 0)+6:], 0xFFFF)
			}
		}},
		{"sd-plabel-column", []Clustering{ClusterTag}, 0, false, func(_ Clustering, p []byte) { le16(p[runOff(p, 0)+4:], 0xFFFF) }},
		{"slot-gap", nil, 1, false, func(_ Clustering, p []byte) {
			first := p[colPageHeader+colRunDirEnt+2:]
			le16(first, binary.LittleEndian.Uint16(first)+1)
		}},
		{"record-count-past-runs", nil, 0, true, func(_ Clustering, p []byte) {
			le16(p[0:2], binary.LittleEndian.Uint16(p[0:2])+5)
		}},
	}
	for _, tc := range cases {
		kinds := tc.kinds
		if kinds == nil {
			kinds = []Clustering{ClusterPLabel, ClusterTag}
		}
		for _, kind := range kinds {
			f := pager.OpenMem(64)
			rel, err := Build(f, kind, makeRecords(50))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Update(rel.meta.heapFirst, func(p []byte) error {
				tc.corrupt(kind, p)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			scans := map[string]func() ([]Record, error){
				"ScanAllBatch": func() ([]Record, error) { return collectRun(rel.ScanAllBatch(nil), 0) },
			}
			switch {
			case tc.fullWalkOnly:
				// Only a scan that walks to the page's end can see an
				// overstated record count: the selective scans stop at
				// their prefix.
			case kind == ClusterPLabel:
				// makeRecords' runs 0..9 all carry plabel 0.
				scans["ScanPLabels"] = func() ([]Record, error) { return drainCursor(exact(rel, nil, u(0))) }
			default:
				// SD run ri holds tag ri+1.
				tag := uint32(tc.run + 1)
				scans["ScanTags"] = func() ([]Record, error) { return drainCursor(tagged(rel, nil, tag)) }
			}
			for name, scan := range scans {
				err, failure := scanOutcome(scan)
				switch {
				case failure != "":
					t.Errorf("%s/%v/%s: %s", tc.name, kind, name, failure)
				case err == nil:
					t.Errorf("%s/%v/%s: scan of a corrupt page returned no error", tc.name, kind, name)
				}
			}
		}
	}
}

// encodeTestPage packs recs (which must fit) into one columnar page.
func encodeTestPage(t testing.TB, kind Clustering, recs []Record) []byte {
	t.Helper()
	ptrs := make([]*Record, len(recs))
	for i := range recs {
		ptrs[i] = &recs[i]
	}
	p := make([]byte, pager.PageSize)
	if err := encodeColumnarPage(p, kind, ptrs); err != nil {
		t.Fatal(err)
	}
	return p
}

func zeroAllocPageRecords(kind Clustering) []Record {
	var recs []Record
	for run := 0; run < 3; run++ {
		for i := 0; i < 60; i++ {
			recs = append(recs, Record{
				PLabel: u(uint64(run + 1)),
				TagID:  uint32(run + 1),
				Start:  uint32(run*1000 + i*3 + 1),
				End:    uint32(run*1000 + i*3 + 2),
				Level:  uint16(i%9 + 1),
				// Data deliberately empty: the value blob of an
				// empty-values run chunk is the empty string, so the
				// decode must not allocate at all.
			})
		}
	}
	_ = kind
	return recs
}

// decodePageRuns decodes every run of page p into dst with
// decodeRunRecords, the decoder every heap-run scan runs, one whole run
// at a time as a BatchSize scan does.
func decodePageRuns(p []byte, kind Clustering, dst []Record) error {
	_, nruns, err := colPageCounts(p)
	if err != nil {
		return err
	}
	for ri := 0; ri < nruns; ri++ {
		run, err := colRunAt(p, kind, ri)
		if err != nil {
			return err
		}
		if err := decodeRunRecords(p, kind, run, 0, run.count, dst[run.firstSlot:]); err != nil {
			return err
		}
	}
	return nil
}

// TestColumnarDecodeZeroAlloc guards the decode hot path: materializing
// records with empty values into a preallocated batch must not allocate
// (with values, the only allocation is the one blob per run chunk).
func TestColumnarDecodeZeroAlloc(t *testing.T) {
	for _, kind := range []Clustering{ClusterPLabel, ClusterTag} {
		recs := zeroAllocPageRecords(kind)
		p := encodeTestPage(t, kind, recs)
		dst := make([]Record, len(recs))
		var decodeErr error
		allocs := testing.AllocsPerRun(100, func() {
			decodeErr = decodePageRuns(p, kind, dst)
		})
		if decodeErr != nil {
			t.Fatal(decodeErr)
		}
		if allocs != 0 {
			t.Errorf("kind %v: decodeRunRecords allocates %.1f times per page, want 0", kind, allocs)
		}
		for i := range recs {
			if dst[i] != recs[i] {
				t.Fatalf("kind %v: record %d decoded as %+v, want %+v", kind, i, dst[i], recs[i])
			}
		}
	}
}

// TestHotpathAnnotations pins the //blas:hotpath set to the decode fast
// paths the zero-alloc guard and BenchmarkDecode* measure, so the
// hotalloc gate and the benchmarks cannot drift apart silently.
func TestHotpathAnnotations(t *testing.T) {
	got, err := analysis.HotpathFuncs(".")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"decodeRunRecords"}
	for _, name := range want {
		if !got[name] {
			t.Errorf("%s lost its //blas:hotpath annotation; the decode zero-alloc guard and hotalloc no longer cover the same code", name)
		}
	}
	if len(got) != len(want) {
		var names []string
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		t.Errorf("//blas:hotpath set = %v, want exactly %v: annotate new fast paths here and extend the zero-alloc guard", names, want)
	}
}

// BenchmarkDecodeColumnarPage tracks single-page batch-decode cost on
// the SP layout (the CI zero-alloc step runs it with -benchtime=1x).
func BenchmarkDecodeColumnarPage(b *testing.B) {
	recs := zeroAllocPageRecords(ClusterPLabel)
	p := encodeTestPage(b, ClusterPLabel, recs)
	dst := make([]Record, len(recs))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := decodePageRuns(p, ClusterPLabel, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeColumnarScan tracks the full columnar cluster-scan
// batch path against a relation, values included.
func BenchmarkDecodeColumnarScan(b *testing.B) {
	recs := makeRecords(100000)
	f := pager.OpenMem(4096)
	r, err := Build(f, ClusterPLabel, recs)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]Record, BatchSize)
	b.ReportAllocs()
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

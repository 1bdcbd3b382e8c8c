package pbtree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pager"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }
func val(i int) []byte { return []byte(fmt.Sprintf("value-%d", i)) }

func buildTree(t *testing.T, f *pager.File, n int) Tree {
	t.Helper()
	b := NewBuilder(f)
	for i := 0; i < n; i++ {
		if err := b.Add(key(i), val(i)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestEmptyTree(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	tree := buildTree(t, f, 0)
	r := NewReader(f, tree)
	if r.Count() != 0 {
		t.Fatal("count != 0")
	}
	if _, ok, err := r.Get([]byte("x")); err != nil || ok {
		t.Fatalf("Get on empty: ok=%v err=%v", ok, err)
	}
	it := r.Scan(nil, nil)
	if it.Next() {
		t.Fatal("scan of empty tree yielded entries")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestSingleLeaf(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	tree := buildTree(t, f, 10)
	if tree.Height != 1 {
		t.Fatalf("height = %d, want 1", tree.Height)
	}
	r := NewReader(f, tree)
	for i := 0; i < 10; i++ {
		v, ok, err := r.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, v, ok, err)
		}
	}
	if _, ok, _ := r.Get([]byte("missing")); ok {
		t.Fatal("found missing key")
	}
}

func TestMultiLevel(t *testing.T) {
	f := pager.OpenMem(64)
	defer f.Close()
	const n = 50000
	tree := buildTree(t, f, n)
	if tree.Height < 2 {
		t.Fatalf("height = %d, want >= 2 for %d entries", tree.Height, n)
	}
	if tree.Count != n {
		t.Fatalf("count = %d", tree.Count)
	}
	r := NewReader(f, tree)
	// Point lookups at boundaries and random positions.
	checks := []int{0, 1, n/2 - 1, n / 2, n - 2, n - 1}
	rnd := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		checks = append(checks, rnd.Intn(n))
	}
	for _, i := range checks {
		v, ok, err := r.Get(key(i))
		if err != nil || !ok || !bytes.Equal(v, val(i)) {
			t.Fatalf("Get(%d) = %q, %v, %v", i, v, ok, err)
		}
	}
	// Missing keys.
	if _, ok, _ := r.Get([]byte("key-99999999x")); ok {
		t.Fatal("found key beyond range")
	}
	if _, ok, _ := r.Get([]byte("a")); ok {
		t.Fatal("found key before range")
	}
}

func TestFullScan(t *testing.T) {
	f := pager.OpenMem(64)
	defer f.Close()
	const n = 20000
	tree := buildTree(t, f, n)
	r := NewReader(f, tree)
	it := r.Scan(nil, nil)
	for i := 0; i < n; i++ {
		if !it.Next() {
			t.Fatalf("scan ended at %d (err=%v)", i, it.Err())
		}
		if !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("scan[%d] = %s", i, it.Key())
		}
		if !bytes.Equal(it.Value(), val(i)) {
			t.Fatalf("scan[%d] value = %s", i, it.Value())
		}
	}
	if it.Next() {
		t.Fatal("extra entries")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestRangeScan(t *testing.T) {
	f := pager.OpenMem(64)
	defer f.Close()
	const n = 5000
	tree := buildTree(t, f, n)
	r := NewReader(f, tree)

	// [lo, hi) with exact-match bounds.
	it := r.Scan(key(100), key(105))
	var got []string
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 5 || got[0] != string(key(100)) || got[4] != string(key(104)) {
		t.Fatalf("range scan got %v", got)
	}

	// Bounds between keys.
	it = r.Scan([]byte("key-00000100x"), []byte("key-00000103x"))
	got = nil
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 3 || got[0] != string(key(101)) {
		t.Fatalf("between-keys scan got %v", got)
	}

	// Scan starting before all keys.
	it = r.Scan([]byte("a"), key(2))
	got = nil
	for it.Next() {
		got = append(got, string(it.Key()))
	}
	if len(got) != 2 || got[0] != string(key(0)) {
		t.Fatalf("before-min scan got %v", got)
	}

	// Scan past the end.
	it = r.Scan(key(n+100), nil)
	if it.Next() {
		t.Fatal("scan past end yielded entries")
	}
}

func TestRejectsUnsortedKeys(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	b := NewBuilder(f)
	if err := b.Add([]byte("b"), nil); err != nil {
		t.Fatal(err)
	}
	if err := b.Add([]byte("a"), nil); err == nil {
		t.Fatal("expected error for out-of-order key")
	}
	if err := b.Add([]byte("c"), nil); err == nil {
		t.Fatal("builder should stay failed")
	}
	if _, err := b.Finish(); err == nil {
		t.Fatal("Finish should report the error")
	}
}

func TestRejectsDuplicateKeys(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	b := NewBuilder(f)
	_ = b.Add([]byte("a"), nil)
	if err := b.Add([]byte("a"), nil); err == nil {
		t.Fatal("expected error for duplicate key")
	}
}

func TestRejectsHugeEntry(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	b := NewBuilder(f)
	if err := b.Add([]byte("k"), make([]byte, pager.PageSize)); err == nil {
		t.Fatal("expected error for oversized entry")
	}
}

func TestVariableLengthEntries(t *testing.T) {
	f := pager.OpenMem(64)
	defer f.Close()
	rnd := rand.New(rand.NewSource(3))
	type kv struct{ k, v string }
	seen := map[string]bool{}
	var kvs []kv
	for len(kvs) < 3000 {
		k := make([]byte, 1+rnd.Intn(40))
		rnd.Read(k)
		if seen[string(k)] {
			continue
		}
		seen[string(k)] = true
		v := make([]byte, rnd.Intn(200))
		rnd.Read(v)
		kvs = append(kvs, kv{string(k), string(v)})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].k < kvs[j].k })
	b := NewBuilder(f)
	for _, e := range kvs {
		if err := b.Add([]byte(e.k), []byte(e.v)); err != nil {
			t.Fatal(err)
		}
	}
	tree, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	r := NewReader(f, tree)
	// Every key retrievable.
	for _, e := range kvs {
		v, ok, err := r.Get([]byte(e.k))
		if err != nil || !ok || string(v) != e.v {
			t.Fatalf("Get(%x) failed: ok=%v err=%v", e.k, ok, err)
		}
	}
	// Full scan in order.
	it := r.Scan(nil, nil)
	for i := 0; it.Next(); i++ {
		if string(it.Key()) != kvs[i].k {
			t.Fatalf("scan[%d] = %x, want %x", i, it.Key(), kvs[i].k)
		}
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

// Random range scans cross-checked against a sorted slice.
func TestRandomRangeScansAgainstReference(t *testing.T) {
	f := pager.OpenMem(64)
	defer f.Close()
	const n = 8000
	tree := buildTree(t, f, n)
	r := NewReader(f, tree)
	rnd := rand.New(rand.NewSource(21))
	for trial := 0; trial < 100; trial++ {
		lo, hi := rnd.Intn(n), rnd.Intn(n)
		if lo > hi {
			lo, hi = hi, lo
		}
		it := r.Scan(key(lo), key(hi))
		for i := lo; i < hi; i++ {
			if !it.Next() {
				t.Fatalf("trial %d: ended at %d (want %d..%d)", trial, i, lo, hi)
			}
			if !bytes.Equal(it.Key(), key(i)) {
				t.Fatalf("trial %d: got %s want %s", trial, it.Key(), key(i))
			}
		}
		if it.Next() {
			t.Fatalf("trial %d: extra entries", trial)
		}
	}
}

func TestIndexPageAccessesCounted(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	tree := buildTree(t, f, 30000)
	r := NewReader(f, tree)
	_ = f.DropCache()
	f.ResetStats()
	if _, _, err := r.Get(key(12345)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.Misses != uint64(tree.Height) {
		t.Fatalf("cold lookup misses = %d, want height %d", st.Misses, tree.Height)
	}
}

// TestEstimateRangeExactAndZero checks the probe's contract: the
// estimate is zero exactly when the range is empty (an empty range's two
// lower bounds normalize to the same position, so the same-leaf exact
// path always catches it), and same-leaf ranges are exact.
func TestEstimateRangeExactAndZero(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	const n = 8000
	tree := buildTree(t, f, n)
	r := NewReader(f, tree)
	rnd := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		lo, hi := rnd.Intn(n+50), rnd.Intn(n+50)
		if lo > hi {
			lo, hi = hi, lo
		}
		want := hi - lo
		if lo >= n {
			want = 0
		} else if hi > n {
			want = n - lo
		}
		got, err := r.EstimateRange(key(lo), key(hi), nil)
		if err != nil {
			t.Fatal(err)
		}
		if (got == 0) != (want == 0) {
			t.Fatalf("[%d,%d): estimate %d, true %d — zero must mean provably empty and vice versa", lo, hi, got, want)
		}
		if want > 0 {
			// Interpolation error on uniform fixed-size keys stays small;
			// the bound here is loose on purpose (it guards order-of-
			// magnitude sanity, not the exact interpolation).
			if got > uint64(want)*3+64 || uint64(want) > got*3+64 {
				t.Fatalf("[%d,%d): estimate %d too far from true %d", lo, hi, got, want)
			}
		}
	}
	// Same-leaf ranges are exact: keys 10..14 sit on the first leaf.
	if got, _ := r.EstimateRange(key(10), key(14), nil); got != 4 {
		t.Fatalf("same-leaf estimate = %d, want exact 4", got)
	}
	// Unbounded and out-of-range bounds.
	if got, _ := r.EstimateRange(nil, nil, nil); got != n {
		t.Fatalf("full-range estimate = %d, want %d", got, n)
	}
	if got, _ := r.EstimateRange(key(n+1), nil, nil); got != 0 {
		t.Fatalf("past-end estimate = %d, want 0", got)
	}
	if got, _ := r.EstimateRange(key(5), key(5), nil); got != 0 {
		t.Fatalf("empty-interval estimate = %d, want 0", got)
	}
}

func TestEstimateRangeEmptyTree(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	r := NewReader(f, buildTree(t, f, 0))
	if got, err := r.EstimateRange(nil, nil, nil); err != nil || got != 0 {
		t.Fatalf("empty tree estimate = %d, err %v", got, err)
	}
}

// TestEstimateRangeCost pins the O(log n) claim: a probe descends to
// two bounds, so it touches at most 2×height pages (and they are
// counted).
func TestEstimateRangeCost(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	tree := buildTree(t, f, 30000)
	r := NewReader(f, tree)
	_ = f.DropCache()
	var c pager.Counters
	if _, err := r.EstimateRange(key(1234), key(23456), &c); err != nil {
		t.Fatal(err)
	}
	if max := 2 * uint64(tree.Height); c.Reads.Load() == 0 || c.Reads.Load() > max {
		t.Fatalf("probe read %d pages, want 1..%d (2×height)", c.Reads.Load(), max)
	}
}

func BenchmarkBulkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := pager.OpenMem(1024)
		bl := NewBuilder(f)
		for j := 0; j < 10000; j++ {
			_ = bl.Add(key(j), val(j))
		}
		if _, err := bl.Finish(); err != nil {
			b.Fatal(err)
		}
		f.Close()
	}
}

func BenchmarkGet(b *testing.B) {
	f := pager.OpenMem(1024)
	defer f.Close()
	bl := NewBuilder(f)
	for j := 0; j < 100000; j++ {
		_ = bl.Add(key(j), val(j))
	}
	tree, err := bl.Finish()
	if err != nil {
		b.Fatal(err)
	}
	r := NewReader(f, tree)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := r.Get(key(i % 100000)); !ok {
			b.Fatal("missing key")
		}
	}
}

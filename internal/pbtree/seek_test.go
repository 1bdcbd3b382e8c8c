package pbtree

import (
	"bytes"
	"testing"

	"repro/internal/pager"
)

// TestSeekValueSweep probes every position of a multi-leaf tree three
// ways: the exact key, a key strictly between it and its successor
// (which at leaf boundaries forces the follow-next-leaf path), and the
// smallest entry via a nil from. Seek, the same descent, must return
// the key and the value of the entry SeekValue returns the value of,
// with the same page requests.
func TestSeekValueSweep(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	const n = 5000
	tree := buildTree(t, f, n)
	if tree.Height < 2 {
		t.Fatalf("tree of %d entries has height %d; the sweep needs inner pages and leaf boundaries", n, tree.Height)
	}
	r := NewReader(f, tree)

	v, ok, err := r.SeekValue(nil, nil, nil)
	if err != nil || !ok || !bytes.Equal(v, val(0)) {
		t.Fatalf("SeekValue(nil) = %q, %v, %v; want first value %q", v, ok, err, val(0))
	}

	var dst []byte
	for i := 0; i < n; i++ {
		dst, ok, err = r.SeekValue(key(i), dst, nil)
		if err != nil || !ok || !bytes.Equal(dst, val(i)) {
			t.Fatalf("SeekValue(key(%d)) = %q, %v, %v; want exact match %q", i, dst, ok, err, val(i))
		}
		// "key-%08d!" sorts strictly between key(i) and key(i+1), so the
		// answer is the successor; when key(i) ends a leaf this exercises
		// the past-leaf-end hop to the next leaf.
		between := append(append([]byte{}, key(i)...), '!')
		dst, ok, err = r.SeekValue(between, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == n-1 {
			if ok {
				t.Fatalf("SeekValue past the last entry = %q, want ok=false", dst)
			}
		} else if !ok || !bytes.Equal(dst, val(i+1)) {
			t.Fatalf("SeekValue(between %d and %d) = %q, %v; want successor %q", i, i+1, dst, ok, val(i+1))
		}
		var vc, kc pager.Counters
		_, vok, _ := r.SeekValue(between, nil, &vc)
		k, v, kok, err := r.Seek(between, nil, nil, &kc)
		if err != nil || kok != vok || (kok && (!bytes.Equal(k, key(i+1)) || !bytes.Equal(v, val(i+1)))) {
			t.Fatalf("Seek(between %d and %d) = %q, %q, %v, %v; want %q, %q, %v", i, i+1, k, v, kok, err, key(i+1), val(i+1), vok)
		}
		if kc.Reads.Load() != vc.Reads.Load() {
			t.Fatalf("Seek(between %d and %d) made %d page requests, SeekValue %d", i, i+1, kc.Reads.Load(), vc.Reads.Load())
		}
	}
}

func TestSeekValueEmptyTree(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	r := NewReader(f, buildTree(t, f, 0))
	for _, from := range [][]byte{nil, []byte("x")} {
		if v, ok, err := r.SeekValue(from, nil, nil); err != nil || ok {
			t.Fatalf("SeekValue(%q) on empty tree = %q, %v, %v; want ok=false", from, v, ok, err)
		}
	}
}

// TestSeekValueReusesDst verifies the append-into-dst contract: a probe
// landing on a shorter value reuses the caller's buffer.
func TestSeekValueReusesDst(t *testing.T) {
	f := pager.OpenMem(16)
	defer f.Close()
	r := NewReader(f, buildTree(t, f, 100))
	dst := make([]byte, 0, 64)
	got, ok, err := r.SeekValue(key(7), dst, nil)
	if err != nil || !ok || !bytes.Equal(got, val(7)) {
		t.Fatalf("SeekValue = %q, %v, %v", got, ok, err)
	}
	if &got[:1][0] != &dst[:1][0] {
		t.Error("SeekValue reallocated although dst had capacity")
	}
}

// TestSeekValueCounted: one cold probe touches exactly one page per
// level — the no-materialization claim in page-request terms.
func TestSeekValueCounted(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	tree := buildTree(t, f, 30000)
	r := NewReader(f, tree)
	_ = f.DropCache()
	var c pager.Counters
	if _, ok, err := r.SeekValue(key(12345), nil, &c); err != nil || !ok {
		t.Fatalf("SeekValue: ok=%v err=%v", ok, err)
	}
	if got := c.Reads.Load(); got != uint64(tree.Height) {
		t.Fatalf("cold seek made %d page requests, want height %d", got, tree.Height)
	}
}

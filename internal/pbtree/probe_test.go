package pbtree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/pager"
)

// TestPairedEstimateMatchesReference checks EstimateRange's one descent
// for both bounds against the reference that descends once per bound,
// on random trees of height 1 to 4 with keys of random length, and on
// random, boundary and nil bounds: the estimate must be bit-identical
// (it decides plan order), the probe must read exactly the distinct
// pages of the two reference paths, and the lower bound's value, when
// EstimateRangeValue returns it, must be the one Seek(from) finds.
func TestPairedEstimateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	heights := map[uint32]bool{}
	returned := 0
	for _, shape := range []struct{ n, pad int }{
		{1, 8}, {60, 8}, {3000, 8}, {900, 300}, {2500, 400}, {700, 1800}, {2500, 1800},
	} {
		f := pager.OpenMem(1024)
		keys := make([][]byte, shape.n)
		b := NewBuilder(f)
		for i := range keys {
			// A fixed-width, strided prefix orders the keys and leaves
			// room between neighbours; the filler varies the fanout.
			k := fmt.Appendf(nil, "%08d", 10*i+5)
			keys[i] = append(k, bytes.Repeat([]byte{'x'}, rng.Intn(shape.pad))...)
			if err := b.Add(keys[i], fmt.Appendf(nil, "v%d", i)); err != nil {
				t.Fatal(err)
			}
		}
		tree, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		heights[tree.Height] = true
		r := NewReader(f, tree)

		// bound draws a bound: nil, an entry's key, a key between two
		// entries or beyond either end.
		bound := func() []byte {
			i := rng.Intn(shape.n)
			switch rng.Intn(6) {
			case 0:
				return nil
			case 1:
				return []byte("0")
			case 2:
				return []byte("99999999")
			case 3:
				return fmt.Appendf(nil, "%08d", 10*i+5+1+rng.Intn(8)) // between i and i+1
			}
			return keys[i]
		}
		for trial := 0; trial < 400; trial++ {
			from, to := bound(), bound()
			name := fmt.Sprintf("height %d, [%.12q, %.12q)", tree.Height, from, to)
			want, refPages, err := r.estimateRangeRef(from, to)
			if err != nil {
				t.Fatal(err)
			}
			distinct := map[pager.PageID]bool{}
			for _, id := range refPages {
				distinct[id] = true
			}
			var c pager.Counters
			got, v, ok, err := r.EstimateRangeValue(from, to, make([]byte, 0, 8), &c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got != want {
				t.Fatalf("%s: estimate %d, the two-descent reference %d", name, got, want)
			}
			if plain, err := r.EstimateRange(from, to, nil); err != nil || plain != got {
				t.Fatalf("%s: EstimateRange = %d, %v; EstimateRangeValue %d", name, plain, err, got)
			}
			if reads := c.Reads.Load(); reads != uint64(len(distinct)) {
				t.Fatalf("%s: %d page reads, want the %d distinct pages of the reference's two paths (%d with repeats)",
					name, reads, len(distinct), len(refPages))
			}
			if ok {
				returned++
				sv, sok, err := r.SeekValue(from, nil, nil)
				if err != nil || !sok || !bytes.Equal(sv, v) {
					t.Fatalf("%s: lower-bound value %q, Seek(from) = %q, %v, %v", name, v, sv, sok, err)
				}
			}
		}
		f.Close()
	}
	if returned == 0 {
		t.Error("no probe returned its lower bound's value")
	}
	for h := uint32(1); h <= 4; h++ {
		if !heights[h] {
			t.Errorf("no tree of height %d was built (heights %v)", h, heights)
		}
	}
}

// TestSeekSelfLinkedLeafFails pins that Seek never follows the leaf
// chain further than the leaf after the one its descent reaches: with
// the last leaf's next pointer naming the leaf itself, a seek past the
// last key must fail with an error naming the page, not loop.
func TestSeekSelfLinkedLeafFails(t *testing.T) {
	f := pager.OpenMem(256)
	defer f.Close()
	const n = 5000
	tree := buildTree(t, f, n)
	r := NewReader(f, tree)
	last := [1]probe{{key: key(n - 1)}}
	if err := r.descend(last[:], nil); err != nil {
		t.Fatal(err)
	}
	id := last[0].id
	if err := f.Update(id, func(p []byte) error {
		binary.LittleEndian.PutUint32(p[3:7], uint32(id))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := r.SeekValue(append(key(n-1), '!'), nil, nil)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !bytes.Contains([]byte(err.Error()), fmt.Appendf(nil, "leaf %d", id)) {
			t.Fatalf("seek past the last key of a self-linked leaf: err = %v, want a corrupt-page error naming leaf %d", err, id)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("seek past the last key of a self-linked leaf did not return within 10s")
	}
}

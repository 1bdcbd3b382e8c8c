package twig

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relstore"
)

// countingIter serves recs in batches of at most step records and
// counts the NextBatch calls it gets.
type countingIter struct {
	recs  []relstore.Record
	step  int
	calls int
}

func (c *countingIter) NextBatch(dst []relstore.Record) (int, error) {
	c.calls++
	n := copy(dst[:min(len(dst), c.step)], c.recs)
	c.recs = c.recs[n:]
	return n, nil
}

// TestBatchStreamReleasesOnce: a twig stream gives its pooled buffer
// back when it reaches the end of its input, and drained past that end
// it neither reads its input again (into a buffer it no longer owns)
// nor releases the buffer a second time, which would panic.
func TestBatchStreamReleasesOnce(t *testing.T) {
	var recs []relstore.Record
	for i := uint32(1); i <= 50; i++ {
		recs = append(recs, relstore.Record{Start: 2 * i, End: 2*i + 1, Level: 1, Data: "v"})
	}
	src := &countingIter{recs: recs, step: 7}
	s := newBatchStream(src, core.RecFilter{})
	var got int
	for !s.eof {
		if s.head().Start != recs[got].Start {
			t.Fatalf("record %d: start %d, want %d", got, s.head().Start, recs[got].Start)
		}
		got++
		s.advance()
	}
	if got != len(recs) || s.err != nil {
		t.Fatalf("drained %d records (err %v), want %d", got, s.err, len(recs))
	}
	if s.batch != nil {
		t.Fatal("the stream kept its buffer after the end of its input")
	}
	calls := src.calls
	for i := 0; i < 3; i++ {
		s.fill()
	}
	if src.calls != calls || !s.eof {
		t.Fatalf("drained past the end: %d more input reads, eof %v", src.calls-calls, s.eof)
	}
}

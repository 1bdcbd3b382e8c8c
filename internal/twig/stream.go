package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// batchSource produces filtered record batches for one stream, on the
// sweep's own goroutine. next returns a non-empty batch, or nil at end
// of stream or on error; a returned batch stays valid until the
// following next call.
type batchSource interface {
	next() ([]relstore.Record, error)
}

// memSource replays the records [i, j) of a one-column arena (a
// partition's share of the materialized root stream), one arena chunk
// per batch.
type memSource struct {
	recs core.Tuples[relstore.Record]
	i, j int
}

func (m *memSource) next() ([]relstore.Record, error) {
	if m.i >= m.j {
		return nil, nil
	}
	run := m.recs.Run(m.i, m.j)
	m.i += len(run)
	return run, nil
}

// syncSource pulls relstore.BatchSize-record batches from a fragment
// stream into its own buffer and filters them there.
type syncSource struct {
	bi     relstore.BatchIter
	filter core.RecFilter
	buf    []relstore.Record
}

func newSyncSource(bi relstore.BatchIter, f core.RecFilter) *syncSource {
	return &syncSource{bi: bi, filter: f, buf: make([]relstore.Record, relstore.BatchSize)}
}

func (s *syncSource) next() ([]relstore.Record, error) {
	for {
		n, err := s.bi.NextBatch(s.buf)
		if err != nil || n == 0 {
			return nil, err
		}
		if recs := s.filter.Apply(s.buf[:n]); len(recs) > 0 {
			return recs, nil
		}
	}
}

// batchStream is the peekable cursor the sweep drives: head() is the
// next record in document order, advance() moves past it, refilling
// from the source batch by batch.
type batchStream struct {
	src batchSource
	cur []relstore.Record
	i   int
	eof bool
	err error
}

func newBatchStream(src batchSource) *batchStream {
	s := &batchStream{src: src}
	s.fill()
	return s
}

func (s *batchStream) fill() {
	s.cur, s.err = s.src.next()
	s.i = 0
	s.eof = len(s.cur) == 0
}

func (s *batchStream) head() relstore.Record { return s.cur[s.i] }

func (s *batchStream) advance() {
	s.i++
	if s.i >= len(s.cur) {
		s.fill()
	}
}

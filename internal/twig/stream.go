package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// batchStream is the peekable cursor the sweep drives over one fragment
// stream: head() is the next record in document order that passes the
// fragment's filter, advance() moves past it. It pulls
// relstore.BatchSize-record batches into its own buffer and filters
// them there.
type batchStream struct {
	bi     relstore.BatchIter
	filter core.RecFilter
	buf    []relstore.Record
	cur    []relstore.Record // filtered survivors of the current batch
	i      int
	eof    bool
	err    error
}

func newBatchStream(bi relstore.BatchIter, f core.RecFilter) *batchStream {
	s := &batchStream{bi: bi, filter: f, buf: make([]relstore.Record, relstore.BatchSize)}
	s.fill()
	return s
}

// fill loads the next batch with at least one survivor, or marks the
// stream exhausted (at end of stream or on error).
func (s *batchStream) fill() {
	s.i = 0
	for {
		n, err := s.bi.NextBatch(s.buf)
		if err != nil || n == 0 {
			s.cur, s.err, s.eof = nil, err, true
			return
		}
		if s.cur = s.filter.Apply(s.buf[:n]); len(s.cur) > 0 {
			return
		}
	}
}

func (s *batchStream) head() relstore.Record { return s.cur[s.i] }

func (s *batchStream) advance() {
	s.i++
	if s.i >= len(s.cur) {
		s.fill()
	}
}

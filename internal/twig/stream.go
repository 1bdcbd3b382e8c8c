package twig

import (
	"repro/internal/core"
	"repro/internal/relstore"
)

// batchStream is the peekable cursor the sweep drives over one fragment
// stream: head() is the next record in document order that passes the
// fragment's filter, advance() moves past it. It reads the stream into a
// pooled relstore.Batch and filters each batch there; a heap-run batch
// is one page's share of the selection, so the buffer never splits a
// page. The buffer goes back to the pool once, when the stream ends.
type batchStream struct {
	bi     relstore.BatchIter
	filter core.RecFilter
	batch  *relstore.Batch   // nil once released, at end of stream
	cur    []relstore.Record // filtered survivors of the current batch
	i      int
	eof    bool
	err    error
}

func newBatchStream(bi relstore.BatchIter, f core.RecFilter) *batchStream {
	s := &batchStream{bi: bi, filter: f, batch: relstore.GetBatch()}
	s.fill()
	return s
}

// fill loads the next batch with at least one survivor, or marks the
// stream exhausted (at end of stream or on error) and releases its
// buffer. Past the end it does nothing.
func (s *batchStream) fill() {
	s.i = 0
	for !s.eof {
		recs, err := s.batch.Next(s.bi)
		if err != nil || len(recs) == 0 {
			s.cur, s.err, s.eof = nil, err, true
			s.batch.Release()
			s.batch = nil
			return
		}
		if s.cur = s.filter.Apply(recs); len(s.cur) > 0 {
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

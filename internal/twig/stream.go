package twig

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relstore"
)

// batchSource produces filtered record batches for one stream. next
// returns a nil slice at end of stream; a returned batch stays valid
// until the following next call. close releases any resources (it is
// required even when next has not been drained — e.g. when a sibling
// stream errored mid-sweep).
//
// Both pulling sources read relstore.BatchSize records per batch.
type batchSource interface {
	next() ([]relstore.Record, error)
	close()
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

func (m *memSource) close() {}

// fillBatch pulls one batch into buf and filters it. It returns the
// filtered records, and n == 0 at end of stream.
func fillBatch(bi relstore.BatchIter, f core.RecFilter, buf []relstore.Record) ([]relstore.Record, int, error) {
	n, err := bi.NextBatch(buf)
	if err != nil || n == 0 {
		return nil, 0, err
	}
	return f.Apply(buf[:n]), n, nil
}

// syncSource pulls batches inline on the sweep goroutine — the fully
// sequential (Parallelism = 1) mode.
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
		recs, n, err := fillBatch(s.bi, s.filter, s.buf)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		if len(recs) > 0 {
			return recs, nil
		}
	}
}

func (s *syncSource) close() {}

// prefetchMsg carries one batch (or the stream's terminal error) from a
// prefetcher to its consumer.
type prefetchMsg struct {
	recs []relstore.Record
	err  error
}

// prefetchDepth is the number of filtered batches a prefetcher keeps
// buffered ahead of its consumer.
const prefetchDepth = 2

// prefetchSource reads batches on a dedicated goroutine, keeping up to
// prefetchDepth filtered batches buffered ahead of the consumer. Each
// batch gets a fresh buffer, so the consumer may hold one while the
// producer fills the next. The time the consumer spends blocked on the
// channel accumulates under PhasePrefetchStall when traced.
type prefetchSource struct {
	ch     chan prefetchMsg
	stop   chan struct{}
	closed bool
	tr     *obs.Trace
}

func startPrefetch(ctx *relstore.ExecContext, bi relstore.BatchIter, f core.RecFilter) *prefetchSource {
	s := &prefetchSource{
		ch:   make(chan prefetchMsg, prefetchDepth),
		stop: make(chan struct{}),
		tr:   ctx.Trace(),
	}
	go func() {
		defer close(s.ch)
		for {
			recs, n, err := fillBatch(bi, f, make([]relstore.Record, relstore.BatchSize))
			if err != nil {
				select {
				case s.ch <- prefetchMsg{err: err}:
				case <-s.stop:
				}
				return
			}
			if n == 0 {
				return
			}
			if len(recs) == 0 {
				continue
			}
			select {
			case s.ch <- prefetchMsg{recs: recs}:
			case <-s.stop:
				return
			}
		}
	}()
	return s
}

func (s *prefetchSource) next() ([]relstore.Record, error) {
	begin := s.tr.Begin()
	msg, ok := <-s.ch
	s.tr.End(obs.PhasePrefetchStall, begin)
	if !ok {
		return nil, nil
	}
	if msg.err != nil {
		return nil, msg.err
	}
	return msg.recs, nil
}

// close stops the producer goroutine. Safe to call after the stream is
// drained; must only be called from the consuming goroutine.
func (s *prefetchSource) close() {
	if !s.closed {
		s.closed = true
		close(s.stop)
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
	for {
		recs, err := s.src.next()
		if err != nil {
			s.err = err
			s.eof = true
			return
		}
		if recs == nil {
			s.eof = true
			return
		}
		if len(recs) > 0 {
			s.cur, s.i = recs, 0
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

func (s *batchStream) close() { s.src.close() }

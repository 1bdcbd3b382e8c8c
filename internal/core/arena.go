package core

import (
	"sync"
	"unsafe"

	"repro/internal/relstore"
)

// maxIdleChunkBytes caps the bytes of released chunks each element
// type's free list keeps; a chunk released past the cap displaces idle
// chunks of other strides, or else goes to the garbage collector. The
// largest query of the benchmark mix (auction factor 8: QA1 under
// dlabel on the relational engine) holds 1.6 MiB of chunks of all three
// types at once, so 4 MiB per type serves at least two such queries in
// flight from the lists, while one huge selection (a factor-8 //* holds
// 18 MiB of chunks) cannot pin its memory for the life of the process.
const maxIdleChunkBytes = 4 << 20

// Arena is one query's source of Tuples chunks. Every Tuples made with
// it takes its chunks from a process-wide free list per element type
// (records, spans, int32 rows) and remembers the arena, so a join's
// output draws from the arena of its input. Release hands every chunk
// back at once: whoever finalizes the query's answer owns the arena and
// releases it after copying the answer out (Store.Query after finalize,
// the engines' Execute after View.Records). A warm query therefore
// allocates no chunk, only its answer.
//
// An Arena is used by one goroutine, the query's. Reading a Tuples or a
// View of a released arena reads chunks another query may be writing.
// An arena that is never released leaves its chunks to the garbage
// collector.
type Arena struct {
	recs     arenaPart[relstore.Record]
	spans    arenaPart[Span]
	ids      arenaPart[int32]
	released bool
}

// NewArena returns an empty arena.
func NewArena() *Arena {
	return &Arena{
		recs:  arenaPart[relstore.Record]{free: &idleRecs},
		spans: arenaPart[Span]{free: &idleSpans},
		ids:   arenaPart[int32]{free: &idleIDs},
	}
}

// Release returns every chunk the arena handed out to the free lists.
// Releasing an arena twice panics: two queries would be handed the same
// chunks.
func (a *Arena) Release() {
	if a.released {
		panic("core: Arena released twice")
	}
	a.released = true
	a.recs.release()
	a.spans.release()
	a.ids.release()
}

// arenaPart is an arena's chunks of one element type: the free list
// they come from and go back to, and those handed out so far.
type arenaPart[T any] struct {
	free *chunkList[T]
	held [][]T
}

// chunk returns an empty chunk of stride<<tupleChunkShift items.
func (p *arenaPart[T]) chunk(stride int) []T {
	c := p.free.get(stride)
	p.held = append(p.held, c)
	return c
}

func (p *arenaPart[T]) release() {
	p.free.put(p.held)
	p.held = nil
}

// partOf returns a's chunks of element type T. Only records, spans and
// int32 rows have free lists.
func partOf[T any](a *Arena) *arenaPart[T] {
	if a.released {
		panic("core: chunk taken from a released Arena")
	}
	var p any
	switch any((*T)(nil)).(type) {
	case *relstore.Record:
		p = &a.recs
	case *Span:
		p = &a.spans
	case *int32:
		p = &a.ids
	default:
		panic("core: Arena has no chunks of this element type")
	}
	return p.(*arenaPart[T])
}

// chunkList is the free list of one element type's released chunks, by
// stride: byStride[s] holds empty chunks of capacity s<<tupleChunkShift.
// Like relstore's batch pool it allocates only when empty, so below the
// cap it holds at most what queries once held at the same time, and it
// is not a sync.Pool, which would free what stays idle across two
// garbage collections.
type chunkList[T any] struct {
	sync.Mutex
	byStride  [][][]T
	idle      int  // bytes held
	clearsPtr bool // clear chunks on put: their items reference strings
}

var (
	idleRecs  = chunkList[relstore.Record]{clearsPtr: true}
	idleSpans chunkList[Span]
	idleIDs   chunkList[int32]
)

// chunkBytes returns the size in bytes of a chunk of capacity n.
func chunkBytes[T any](n int) int {
	var zero T
	return n * int(unsafe.Sizeof(zero))
}

// get takes a released chunk of the stride, or allocates one when the
// list has none.
func (l *chunkList[T]) get(stride int) []T {
	l.Lock()
	if stride < len(l.byStride) && len(l.byStride[stride]) > 0 {
		c := l.pop(stride)
		l.Unlock()
		return c
	}
	l.Unlock()
	return make([]T, 0, stride<<tupleChunkShift)
}

// pop takes the last idle chunk of the stride off the list. Caller holds
// l's lock.
func (l *chunkList[T]) pop(stride int) []T {
	s := l.byStride[stride]
	c := s[len(s)-1]
	s[len(s)-1] = nil
	l.byStride[stride] = s[:len(s)-1]
	l.idle -= chunkBytes[T](cap(c))
	return c
}

// put takes chunks back, emptied, and drops those past the cap to the
// garbage collector. Record chunks are cleared first, to their capacity
// (an arena holds each chunk as it was handed out, empty; the Tuples
// filled it), so the list keeps no value string reachable.
func (l *chunkList[T]) put(chunks [][]T) {
	if l.clearsPtr {
		for _, c := range chunks {
			clear(c[:cap(c)])
		}
	}
	l.Lock()
	defer l.Unlock()
	for _, c := range chunks {
		size := chunkBytes[T](cap(c))
		stride := cap(c) >> tupleChunkShift
		for len(l.byStride) <= stride {
			l.byStride = append(l.byStride, nil)
		}
		// Past the cap, idle chunks of other strides make room: a list
		// one huge query filled with its stride must not leave every
		// other stride allocating for good.
		for s := 0; s < len(l.byStride) && l.idle+size > maxIdleChunkBytes; s++ {
			for s != stride && len(l.byStride[s]) > 0 && l.idle+size > maxIdleChunkBytes {
				l.pop(s)
			}
		}
		if l.idle+size > maxIdleChunkBytes {
			continue
		}
		l.byStride[stride] = append(l.byStride[stride], c[:0])
		l.idle += size
	}
}

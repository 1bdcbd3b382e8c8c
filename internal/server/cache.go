package server

import (
	"container/list"
	"encoding/json"
	"sync"

	blas "repro"
)

// CacheMetrics is one cache's traffic and occupancy snapshot.
type CacheMetrics struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Evictions     uint64 `json:"evictions"`
	Invalidations uint64 `json:"invalidations"` // entries dropped by purge (DELETE /cache, store swap)
	Entries       int    `json:"entries"`
	MaxEntries    int    `json:"max_entries"`
	Bytes         int64  `json:"bytes,omitempty"`     // result cache only: encoded bytes held
	MaxBytes      int64  `json:"max_bytes,omitempty"` // result cache only
}

// planKey identifies one prepared plan. The generation component is the
// staleness guard: a plan's P-label ranges are minted by one store's
// labeling scheme, so a plan prepared against generation G must never
// serve a query against generation G' != G (same-path labels differ
// between shredding runs). Keying on Store.Generation makes every entry
// of a swapped-out store unreachable the moment the swap lands.
type planKey struct {
	gen        uint64
	translator blas.Translator
	query      string // normalized form (blas.NormalizeQuery)
}

// lru is a bounded LRU cache with traffic counters: at most maxEntries
// entries and, when size is non-nil, entries whose sizes sum to at most
// maxBytes; an entry larger than maxBytes is not cached at all. A nil
// lru is a disabled cache: it holds nothing and counts nothing. The
// server has two:
//   - The plan cache maps a planKey to a PreparedQuery, caching exactly
//     what ExecStats.PlanElapsed measures: parse, translate and the
//     physical planner's selectivity-ordered pass. An entry holds the
//     ordered physical plan (immutable, see package planner), so a warm
//     hit skips the planner's index probes too. The generation key also
//     guards the planner's estimates: they were probed from one store's
//     indexes and are as generation-bound as the P-label ranges.
//   - The result cache maps a resultKey to an encodedResult, and is the
//     only one with a byte bound.
type lru[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	size       func(V) int64 // nil: no byte bound
	entries    map[K]*list.Element
	order      *list.List // front = most recently used; element values are *lruEntry

	hits, misses, evictions, invalidations uint64
}

type lruEntry[K comparable, V any] struct {
	key K
	val V
}

func newLRU[K comparable, V any](maxEntries int, maxBytes int64, size func(V) int64) *lru[K, V] {
	return &lru[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, size: size, entries: map[K]*list.Element{}, order: list.New()}
}

func (c *lru[K, V]) get(k K) (val V, ok bool) {
	if c == nil {
		return val, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return val, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

func (c *lru[K, V]) put(k K, v V) {
	if c == nil {
		return
	}
	var size int64
	if c.size != nil {
		if size = c.size(v); size > c.maxBytes {
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok { // lost a race to fill it; keep the winner fresh
		c.order.MoveToFront(el)
		return
	}
	c.entries[k] = c.order.PushFront(&lruEntry[K, V]{key: k, val: v})
	c.bytes += size
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.order.Back()
		c.order.Remove(tail)
		e := tail.Value.(*lruEntry[K, V])
		delete(c.entries, e.key)
		if c.size != nil {
			c.bytes -= c.size(e.val)
		}
		c.evictions++
	}
}

// purge drops every entry, returning how many were dropped.
func (c *lru[K, V]) purge() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = map[K]*list.Element{}
	c.order.Init()
	c.bytes = 0
	c.invalidations += uint64(n)
	return n
}

func (c *lru[K, V]) metrics() CacheMetrics {
	if c == nil {
		return CacheMetrics{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, Entries: len(c.entries),
		MaxEntries: c.maxEntries, Bytes: c.bytes, MaxBytes: c.maxBytes,
	}
}

// resultKey identifies one cached result set. Engine stays in the key
// out of caution — result equality across engines is an invariant the
// integration tests enforce, not one the cache should silently depend
// on.
type resultKey struct {
	gen        uint64
	engine     blas.Engine
	translator blas.Translator
	query      string // normalized form
}

// encodedResult is one executed query as the response needs it: the
// matches already rendered to their JSON array (encoding/json's output
// for []blas.Match, produced once, when the query ran) beside the count
// and statistics. It is immutable, so the cache hands the same value to
// every hit and a hit costs no encoding at all.
type encodedResult struct {
	count   int
	matches []byte
	stats   blas.ExecStats
}

// encodeResult renders a result's matches once. A nil match slice
// encodes as [], so the JSON field is always an array.
func encodeResult(res *blas.Result) (*encodedResult, error) {
	matches := res.Matches
	if matches == nil {
		matches = []blas.Match{}
	}
	raw, err := json.Marshal(matches)
	if err != nil {
		return nil, err
	}
	return &encodedResult{count: len(matches), matches: raw, stats: res.Stats}, nil
}

// size is what an entry is charged against the byte limit: the encoded
// matches it pins, plus a fixed allowance for the entry and its stats.
func (r *encodedResult) size() int64 { return int64(len(r.matches)) + 256 }

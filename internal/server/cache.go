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

// planCache is a bounded LRU of PreparedQuery by planKey, caching
// exactly what ExecStats.PlanElapsed measures: parse, translate and the
// physical planner's selectivity-ordered pass — a cached entry holds
// the ordered physical plan (immutable, see package planner), so a
// warm hit skips the planner's index probes too. The generation key
// also guards the planner's estimates: they were probed from one
// store's indexes and are as generation-bound as the P-label ranges.
type planCache struct {
	mu      sync.Mutex
	max     int
	entries map[planKey]*list.Element
	lru     *list.List // front = most recently used; element values are *planEntry

	hits, misses, evictions, invalidations uint64
}

type planEntry struct {
	key planKey
	pq  *blas.PreparedQuery
}

func newPlanCache(max int) *planCache {
	return &planCache{max: max, entries: map[planKey]*list.Element{}, lru: list.New()}
}

func (c *planCache) get(k planKey) (*blas.PreparedQuery, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*planEntry).pq, true
}

func (c *planCache) put(k planKey, pq *blas.PreparedQuery) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok { // lost a prepare race; keep the winner fresh
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&planEntry{key: k, pq: pq})
	for len(c.entries) > c.max {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		delete(c.entries, tail.Value.(*planEntry).key)
		c.evictions++
	}
}

// purge drops every entry, returning how many were dropped.
func (c *planCache) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = map[planKey]*list.Element{}
	c.lru.Init()
	c.invalidations += uint64(n)
	return n
}

func (c *planCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, Entries: len(c.entries), MaxEntries: c.max,
	}
}

// resultKey identifies one cached result set. Results are byte-identical
// at every parallelism level (the engines' core guarantee), so the key
// deliberately omits parallelism: a result computed with 4 workers
// serves a sequential request. Engine stays in the key out of caution —
// result equality across engines is an invariant the integration tests
// enforce, not one the cache should silently depend on.
type resultKey struct {
	gen        uint64
	engine     blas.Engine
	translator blas.Translator
	query      string // normalized form
}

// resultCache is a bounded LRU of encoded query results with both an
// entry limit and a byte limit. Entries larger than the byte limit are
// not cached at all.
type resultCache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	entries    map[resultKey]*list.Element
	lru        *list.List // element values are *resultEntry

	hits, misses, evictions, invalidations uint64
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

type resultEntry struct {
	key resultKey
	res *encodedResult
}

func newResultCache(maxEntries int, maxBytes int64) *resultCache {
	return &resultCache{
		maxEntries: maxEntries, maxBytes: maxBytes,
		entries: map[resultKey]*list.Element{}, lru: list.New(),
	}
}

func (c *resultCache) get(k resultKey) (*encodedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(el)
	return el.Value.(*resultEntry).res, true
}

// put caches an encoded result.
func (c *resultCache) put(k resultKey, res *encodedResult) {
	size := res.size()
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&resultEntry{key: k, res: res})
	c.bytes += size
	for len(c.entries) > c.maxEntries || c.bytes > c.maxBytes {
		tail := c.lru.Back()
		c.lru.Remove(tail)
		e := tail.Value.(*resultEntry)
		delete(c.entries, e.key)
		c.bytes -= e.res.size()
		c.evictions++
	}
}

func (c *resultCache) purge() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	c.entries = map[resultKey]*list.Element{}
	c.lru.Init()
	c.bytes = 0
	c.invalidations += uint64(n)
	return n
}

func (c *resultCache) metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheMetrics{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Invalidations: c.invalidations, Entries: len(c.entries),
		MaxEntries: c.maxEntries, Bytes: c.bytes, MaxBytes: c.maxBytes,
	}
}

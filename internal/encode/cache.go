package encode

import (
	"sync"

	"lyra/internal/ir"
)

// DefaultCacheEntries bounds the solver cache when the caller does not pick
// a size: generous enough to hold every symmetry class of a large compile —
// and every component of a 64-pod fabric compiled with dedup off — small
// enough that a long churn loop over many distinct topology states cannot
// grow the resident set without bound (each entry pins a full solver, about
// half a megabyte for one pod of a k=32 fat tree).
const DefaultCacheEntries = 96

// Cache retains solved components' encoders — persistent SMT solvers with
// their learnt clauses, VSIDS activity, and saved phases — so a later Solve
// over an unchanged component (typically a Recompile whose topology delta
// left the component untouched) resumes incrementally instead of re-encoding
// from scratch.
//
// An entry is keyed by the identity of the root IR program (Recompile reuses
// the previous Result's IR verbatim, so pointer equality is exact) plus a
// content key over everything else the encoding depends on: the component's
// canonical fingerprint — its algorithms, their index-renamed scopes and flow
// paths, and the ASIC specification behind every index (capacity facts learned
// by the resource theory are permanent clauses, so a changed chip must miss) —
// and the switches the indices stand for. Any delta that touches one of those
// produces a different key and the component encodes fresh.
//
// The cache is bounded: once the entry cap is reached, inserting a new key
// evicts the least-recently-used entry. Take/put transfers ownership: take
// removes the entry, so two concurrent solves can never share one solver,
// and the encoder is only put back after a successful solve leaves it in a
// reusable state.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	cap     int
	tick    uint64
	hits    int64
	evicted int64
}

type cacheKey struct {
	root *ir.Program
	key  string
}

// cacheEntry holds a solved component's encoder.
type cacheEntry struct {
	enc      *encoder
	lastUsed uint64
}

// NewCache returns an empty solver cache bounded to DefaultCacheEntries.
func NewCache() *Cache { return NewCacheLimited(DefaultCacheEntries) }

// NewCacheLimited returns an empty solver cache holding at most maxEntries
// encoders (LRU eviction). maxEntries <= 0 means unbounded.
func NewCacheLimited(maxEntries int) *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}, cap: maxEntries}
}

// Len reports the number of cached encoders.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits reports the number of successful takes over the cache's lifetime.
func (c *Cache) Hits() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Evictions reports the number of entries dropped by the LRU bound.
func (c *Cache) Evictions() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted
}

func (c *Cache) take(root *ir.Program, key string) *encoder {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	k := cacheKey{root, key}
	e := c.entries[k]
	if e == nil {
		return nil
	}
	delete(c.entries, k)
	c.hits++
	return e.enc
}

// put inserts an encoder, reporting whether the LRU bound evicted another
// entry to make room. The encoder's Input is dropped — take's caller installs
// the current one — so a cached solver does not pin the network (and the
// scopes' path sets) of the compile that built it; so are the allocator memo
// and the resource state of its last model, which the next solve rebuilds.
func (c *Cache) put(root *ir.Program, key string, e *encoder) (evicted bool) {
	if c == nil || e == nil {
		return false
	}
	e.in = nil
	e.allocs = nil
	if t := e.theory; t != nil {
		t.allocations, t.placedTables, t.shards = nil, nil, nil
	}
	k := cacheKey{root, key}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, present := c.entries[k]; !present && c.cap > 0 && len(c.entries) >= c.cap {
		// Evict the least-recently-used entry. The scan is O(entries), which
		// the small cap keeps trivial next to a single solver's footprint.
		var oldest cacheKey
		var oldestTick uint64
		first := true
		for ck, ce := range c.entries {
			if first || ce.lastUsed < oldestTick {
				oldest, oldestTick, first = ck, ce.lastUsed, false
			}
		}
		delete(c.entries, oldest)
		c.evicted++
		evicted = true
	}
	c.tick++
	c.entries[k] = &cacheEntry{enc: e, lastUsed: c.tick}
	return evicted
}

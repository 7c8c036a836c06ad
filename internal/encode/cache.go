package encode

import (
	"sync"

	"lyra/internal/ir"
)

// DefaultCacheEntries bounds the class memo when the caller does not pick a
// size. A churn loop of single faults from one base meets one class per
// damaged-pod shape, whatever the fabric's size: every single ToR-down and
// link-down of a pod makes three (the intact pod, a pod less a ToR, a pod less
// a link; TestChurnFitsTheMemo), so the bound leaves room for multi-fault
// shapes and degraded chips, and is small enough that many distinct topology
// states cannot grow the resident set without bound. An entry is a Template —
// kilobytes, however many pods are bound to it.
const DefaultCacheEntries = 96

// Cache is a bounded memo from symmetry class to solved Template. A component
// whose class is in the memo is bound with no encoder built and no solver
// called, whichever compile or recompile solved the class first and whatever
// its switches were called there: every intact pod of a fabric, always, and a
// damaged pod whose shape was seen before.
//
// An entry is keyed by the identity of the root IR program (Recompile reuses
// the previous Result's IR verbatim, so pointer equality is exact, and no
// other compile can ever hit it) plus the class key: the component's
// name-free canonical fingerprint — its algorithms, their index-renamed scopes
// and flow paths, the ASIC specification behind every index — and the
// objective that shapes the solved plan (see Options.shaping). The value is
// immutable and carries its own fallback trail, so what a class gave up to be
// placed is reported by every plan bound to it.
//
// The memo is bounded: once the entry cap is reached, inserting a new key
// evicts the least-recently-used entry.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	cap     int
	tick    uint64
	hits    int64
	evicted int64
}

type cacheKey struct {
	root  *ir.Program
	class string
}

type cacheEntry struct {
	tmpl     *Template
	lastUsed uint64
}

// NewCache returns an empty class memo bounded to DefaultCacheEntries.
func NewCache() *Cache { return NewCacheLimited(DefaultCacheEntries) }

// NewCacheLimited returns an empty class memo holding at most maxEntries
// templates (LRU eviction). maxEntries <= 0 means unbounded.
func NewCacheLimited(maxEntries int) *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}, cap: maxEntries}
}

// Len reports the number of memoised classes.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Hits reports the number of classes answered from the memo over its
// lifetime.
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

// get returns the memoised template of a class, or nil.
func (c *Cache) get(root *ir.Program, class string) *Template {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[cacheKey{root, class}]
	if e == nil {
		return nil
	}
	c.hits++
	c.tick++
	e.lastUsed = c.tick
	return e.tmpl
}

// put memoises a solved class, reporting whether the LRU bound evicted another
// entry to make room. Two concurrent solves of one class put equal templates;
// the later one wins, which changes nothing a reader can observe.
func (c *Cache) put(root *ir.Program, class string, t *Template) (evicted bool) {
	k := cacheKey{root, class}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, present := c.entries[k]; !present && c.cap > 0 && len(c.entries) >= c.cap {
		// Evict the least-recently-used entry. The scan is O(entries), which
		// the small cap keeps trivial next to solving a class.
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
	c.entries[k] = &cacheEntry{tmpl: t, lastUsed: c.tick}
	return evicted
}

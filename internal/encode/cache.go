package encode

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"lyra/internal/ir"
)

// DefaultCacheEntries bounds the solver cache when the caller does not pick
// a size: generous enough to hold every component of a large compile, small
// enough that a long churn loop over many distinct topology states cannot
// grow the resident set without bound (each entry pins a full solver).
const DefaultCacheEntries = 128

// Cache retains solved components' encoders — persistent SMT solvers with
// their learnt clauses, VSIDS activity, and saved phases — so a later Solve
// over an unchanged component (typically a Recompile whose topology delta
// left the component untouched) resumes incrementally instead of re-encoding
// from scratch. It also memoises the plans replayed onto symmetric twins
// (see twinKey), under the same bound and eviction policy.
//
// An entry is keyed by the identity of the root IR program (Recompile reuses
// the previous Result's IR verbatim, so pointer equality is exact) plus a
// content key over everything else the encoding depends on: the component's
// algorithms, their resolved scopes, and the ASIC specifications of every
// scope switch. Any delta that touches one of those produces a different key
// and the component encodes fresh.
//
// The cache is bounded: once the entry cap is reached, inserting a new key
// evicts the least-recently-used entry. Take/put transfers ownership: take
// removes the entry, so two concurrent solves can never share one solver,
// and the encoder is only put back after a successful solve leaves it in a
// reusable state. Memoised plans are immutable, so they stay in the cache
// while any number of concurrent solves read them.
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

// cacheEntry holds a solved component's encoder or a twin's replayed plan.
type cacheEntry struct {
	enc      *encoder
	plan     *Plan
	lastUsed uint64
}

// NewCache returns an empty solver cache bounded to DefaultCacheEntries.
func NewCache() *Cache { return NewCacheLimited(DefaultCacheEntries) }

// NewCacheLimited returns an empty solver cache holding at most maxEntries
// encoders (LRU eviction). maxEntries <= 0 means unbounded.
func NewCacheLimited(maxEntries int) *Cache {
	return &Cache{entries: map[cacheKey]*cacheEntry{}, cap: maxEntries}
}

// Len reports the number of cached entries (encoders and memoised plans).
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
// scopes' path sets) of the compile that built it.
func (c *Cache) put(root *ir.Program, key string, e *encoder) (evicted bool) {
	if c == nil || e == nil {
		return false
	}
	e.in = nil
	return c.insert(cacheKey{root, key}, &cacheEntry{enc: e})
}

// plan returns the plan memoised under key, marking it recently used, or nil.
func (c *Cache) plan(root *ir.Program, key string) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[cacheKey{root, key}]
	if e == nil {
		return nil
	}
	c.tick++
	e.lastUsed = c.tick
	return e.plan
}

// putPlan memoises a plan, reporting whether that evicted another entry.
// From here on the plan is shared and must not be modified.
func (c *Cache) putPlan(root *ir.Program, key string, p *Plan) (evicted bool) {
	if c == nil {
		return false
	}
	return c.insert(cacheKey{root, key}, &cacheEntry{plan: p})
}

func (c *Cache) insert(k cacheKey, e *cacheEntry) (evicted bool) {
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
	e.lastUsed = c.tick
	c.entries[k] = e
	return evicted
}

// componentKey renders the encoding-relevant content of a component input:
// algorithm names (IR content is covered by the root pointer), each scope's
// deployment mode, switch list and flow paths, and the ASIC model of every
// scope switch (capacity facts learned by the resource theory are permanent
// clauses, so a changed chip spec must miss). Paths render through EachPath
// so lazy scopes key on the same content as materialized ones; a scope whose
// enumeration overflows its budget keys as such (and will fail encoding the
// same way on every attempt).
func componentKey(in *Input) string {
	var b strings.Builder
	algs := make([]string, 0, len(in.IR.Algorithms))
	for _, a := range in.IR.Algorithms {
		algs = append(algs, a.Name)
	}
	sort.Strings(algs)
	seenSw := map[string]bool{}
	var sws []string
	for _, name := range algs {
		fmt.Fprintf(&b, "alg %s", name)
		if rs := in.Scopes[name]; rs != nil {
			fmt.Fprintf(&b, " deploy=%d switches=%v paths=[", rs.Deploy, rs.Switches)
			if err := rs.EachPath(func(p []string) bool {
				fmt.Fprintf(&b, "%v ", p)
				return true
			}); err != nil {
				b.WriteString("overflow")
			}
			b.WriteByte(']')
			for _, sw := range rs.Switches {
				if !seenSw[sw] {
					seenSw[sw] = true
					sws = append(sws, sw)
				}
			}
		}
		b.WriteByte('\n')
	}
	sort.Strings(sws)
	for _, sw := range sws {
		if s := in.Net.Switch(sw); s != nil {
			fmt.Fprintf(&b, "sw %s asic=%+v\n", sw, s.ASIC)
		} else {
			fmt.Fprintf(&b, "sw %s missing\n", sw)
		}
	}
	return b.String()
}

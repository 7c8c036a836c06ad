package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"strconv"
	"sync"

	"lyra"
	"lyra/internal/asic"
	"lyra/internal/topo"
)

// Outcome labels how Cache.Do obtained its result.
type Outcome int

// Cache outcomes.
const (
	// OutcomeMiss: this call ran the compile itself.
	OutcomeMiss Outcome = iota
	// OutcomeHit: a completed entry was served.
	OutcomeHit
	// OutcomeDedup: the call joined an identical in-flight compile and
	// received its result without running anything.
	OutcomeDedup
)

// Cache is the daemon's shared content-addressed artifact store. Keys hash
// the complete compile input (program, scope, topology, configuration,
// fault set), so identical requests from any tenant resolve to the same
// entry; an in-flight compile is single-flighted, collapsing concurrent
// identical requests into one pipeline run. Entries are completed
// *lyra.Result values, treated as immutable. The store is bounded:
// insertion order is evicted first once max entries accumulate.
type Cache struct {
	mu       sync.Mutex
	max      int
	entries  map[string]*lyra.Result
	order    []string
	inflight map[string]*flight
}

// errJoinedPanic is what the waiters joined to a compile that panicked get.
var errJoinedPanic = &lyra.InternalError{Value: "the compile this request joined panicked"}

type flight struct {
	done chan struct{}
	res  *lyra.Result
	err  error
}

// NewCache builds a cache bounded to max completed entries (<= 0 selects
// 256).
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 256
	}
	return &Cache{
		max:      max,
		entries:  map[string]*lyra.Result{},
		inflight: map[string]*flight{},
	}
}

// Do returns the completed entry for key, joins an identical in-flight
// compile, or runs compile itself and stores a successful result. Errors
// are returned to every joined waiter but never cached — the next request
// retries fresh. A waiter whose ctx expires while joined gives up with
// ctx.Err() (the underlying compile keeps running for the others). A compile
// that panics ends its flight too: the panic goes on up the caller's stack,
// and the joined waiters get an *lyra.InternalError.
func (c *Cache) Do(ctx context.Context, key string, compile func() (*lyra.Result, error)) (*lyra.Result, Outcome, error) {
	c.mu.Lock()
	if r, ok := c.entries[key]; ok {
		c.mu.Unlock()
		return r, OutcomeHit, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.res, OutcomeDedup, f.err
		case <-ctx.Done():
			return nil, OutcomeDedup, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{}), err: errJoinedPanic}
	c.inflight[key] = f
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if f.err == nil && f.res != nil {
			c.put(key, f.res)
		}
		c.mu.Unlock()
		close(f.done)
	}()
	f.res, f.err = compile()
	return f.res, OutcomeMiss, f.err
}

// Lookup returns a completed entry without triggering any work — the
// stale-serving tier reads whatever is already there.
func (c *Cache) Lookup(key string) (*lyra.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	r, ok := c.entries[key]
	return r, ok
}

// put stores a completed entry, evicting oldest-inserted beyond the bound.
// Caller holds c.mu.
func (c *Cache) put(key string, r *lyra.Result) {
	if _, ok := c.entries[key]; !ok {
		c.order = append(c.order, key)
	}
	c.entries[key] = r
	for len(c.entries) > c.max && len(c.order) > 0 {
		old := c.order[0]
		c.order = c.order[1:]
		delete(c.entries, old)
	}
}

// cacheKey canonicalizes one compile input into a content hash. faultSet
// must already be in canonical (sorted) order; extra distinguishes
// configuration axes that change the artifact or its guarantees (dialect,
// skip-verify tier).
func cacheKey(source, scope, netFP string, faultSet []string, extra ...string) string {
	h := sha256.New()
	buf := make([]byte, 0, 512) // the texts pass through it, not copied whole
	write := func(s string) {
		h.Write(append(strconv.AppendInt(buf[:0], int64(len(s)), 10), ':'))
		for len(s) > 0 {
			n := copy(buf[:cap(buf)], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	write(source)
	write(scope)
	write(netFP)
	for _, f := range faultSet {
		write(f)
	}
	for _, e := range extra {
		write(e)
	}
	return hex.EncodeToString(h.Sum(buf[:0]))
}

// targetMemo keeps the networks of the targets requests name, each with its
// fingerprint, so a request names a network rather than builds one. Nothing
// edits a parsed network — cached Results already share theirs across
// tenants, and a session faults clones of its base — so every request aimed
// at one target shares one network. It holds the maxTargets most recently
// used: a fat tree may have k up to topo.MaxFatTreeK.
type targetMemo struct {
	mu   sync.Mutex
	nets []parsedNet // least recently used first
}

const maxTargets = 4

type parsedNet struct {
	k    int
	chip *asic.Model
	net  *lyra.Network
	fp   string // networkFingerprint(net)
}

// get returns the network of target t and its fingerprint, building both on
// first use.
func (m *targetMemo) get(t topo.Target) (*lyra.Network, string) {
	m.mu.Lock()
	p, ok := m.find(t)
	m.mu.Unlock()
	if ok {
		return p.net, p.fp
	}
	// Built outside the lock: two first requests for one target may both
	// build it, and the first one kept is the one both use.
	net := t.Network()
	built := parsedNet{t.K, t.Chip, net, networkFingerprint(net)}
	m.mu.Lock()
	defer m.mu.Unlock()
	if p, ok := m.find(t); ok {
		return p.net, p.fp
	}
	if len(m.nets) == maxTargets {
		m.nets = append(m.nets[:0], m.nets[1:]...)
	}
	m.nets = append(m.nets, built)
	return built.net, built.fp
}

// find returns the entry of t, moving it to the most recently used end. The
// caller holds m.mu.
func (m *targetMemo) find(t topo.Target) (parsedNet, bool) {
	for i, p := range m.nets {
		if p.k == t.K && p.chip == t.Chip {
			m.nets = append(append(m.nets[:i], m.nets[i+1:]...), p)
			return p, true
		}
	}
	return parsedNet{}, false
}

// networkFingerprint canonically renders a topology: sorted switches with
// layer and chip model, then sorted links.
func networkFingerprint(net *topo.Network) string {
	var b []byte
	for _, name := range net.Names() {
		sw := net.Switch(name)
		b = append(b, name...)
		b = append(b, '/')
		b = append(b, sw.Layer...)
		b = append(b, '/')
		if sw.ASIC != nil {
			b = append(b, sw.ASIC.Name...)
		}
		b = append(b, ';')
		net.EachNeighbor(name, func(nb string) {
			if name < nb {
				b = append(b, name...)
				b = append(b, '-')
				b = append(b, nb...)
				b = append(b, ',')
			}
		})
	}
	return string(b)
}

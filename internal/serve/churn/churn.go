// Package churn is the serve daemon's endurance harness: it boots an
// in-process daemon, replays a seeded storm of fault/recovery events,
// injected panics, and oversized identical-request bursts against it from
// concurrent clients, and scores the run — throughput, convergence latency
// percentiles, shed/degraded counts, dedup observability, recovery time —
// while asserting the robustness contract: no 5xx, every backpressure
// response labelled and retry-hinted, a clean drain, and no leaked
// goroutines. TestStormSmoke drives the full-size storm.
package churn

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lyra/internal/leak"
	"lyra/internal/serve"
)

// Config sizes a storm.
type Config struct {
	Seed int64
	// Events is the fault/recovery event budget (TestStormSmoke uses 500).
	Events int
	// Clients drive events concurrently; Sessions is the tenant count they
	// spread across.
	Clients  int
	Sessions int
	// Duration caps the storm wall clock; the run stops at whichever of
	// Events/Duration is hit first.
	Duration time.Duration
	// PanicEvery injects a panicking request every N events (0 disables);
	// BurstEvery fires BurstSize identical one-shot compiles every N events
	// — sized above daemon capacity, they exercise dedup and shedding.
	PanicEvery int
	BurstEvery int
	BurstSize  int
	// Daemon sizing.
	MaxInflight int
	QueueDepth  int
}

func (c Config) withDefaults() Config {
	if c.Events <= 0 {
		c.Events = 500
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Sessions <= 0 {
		c.Sessions = 4
	}
	if c.Duration <= 0 {
		c.Duration = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	return c
}

// Result scores one storm. Violations is empty on a passing run.
type Result struct {
	Seed int64 `json:"seed"`
	// Events counts fault/recovery events issued; Converged counts the ones
	// whose synchronous recompile round-trip succeeded (the rest hit typed
	// degradation: timeout or shed past retries).
	Events    int   `json:"events"`
	Converged int64 `json:"converged"`
	Clients   int   `json:"clients"`
	Sessions  int   `json:"sessions"`

	DurationMs float64 `json:"duration_ms"`
	// Throughput is converged events per second; the percentiles are
	// per-event synchronous convergence latency (enqueue -> applied).
	Throughput float64 `json:"events_per_sec"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// RecoveryMs is the worst per-session time to converge back to the
	// exact base artifacts after the storm's faults are all cleared.
	RecoveryMs float64 `json:"recovery_ms"`

	Shed               int64 `json:"shed"`
	DegradedSkipVerify int64 `json:"degraded_skip_verify"`
	DegradedStale      int64 `json:"degraded_stale"`
	PanicsInjected     int64 `json:"panics_injected"`
	PanicsRecovered    int64 `json:"panics_recovered"`
	Timeouts           int64 `json:"timeouts"`
	CacheHits          int64 `json:"cache_hits"`
	Deduped            int64 `json:"deduped"`
	Coalesced          int64 `json:"coalesced_events"`
	Recompiles         int64 `json:"recompiles"`
	RecompileErrors    int64 `json:"recompile_errors"`
	// BurstMisses/BurstDeduped make dedup observable: each burst of
	// identical fresh requests should cost one compile.
	BurstMisses  int64 `json:"burst_misses"`
	BurstDeduped int64 `json:"burst_deduped"`

	FiveXX           int64    `json:"five_xx"`
	CleanDrain       bool     `json:"clean_drain"`
	LeakedGoroutines int      `json:"leaked_goroutines"`
	Violations       []string `json:"violations,omitempty"`
}

const stormSource = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
pipeline[LB]{loadbalancer};
algorithm loadbalancer {
  extern dict<bit[32] hash, bit[32] ip>[100000] conn_table;
  extern dict<bit[32] vip, bit[32] dip>[10000] vip_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  } else {
    if (ipv4.dstAddr in vip_table) {
      ipv4.dstAddr = vip_table[ipv4.dstAddr];
    }
  }
}
`

const stormScope = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]"

// faultTargets are the storm's togglable faults. They leave the scoped
// switches' placement solvable in every combination (Agg4 stays up, so the
// load balancer always has a host).
var faultTargets = []serve.WireEvent{
	{Kind: "switch-down", Switch: "Agg1"},
	{Kind: "switch-down", Switch: "Agg2"},
	{Kind: "switch-down", Switch: "Agg3"},
	{Kind: "switch-down", Switch: "Core1"},
	{Kind: "switch-down", Switch: "Core2"},
	{Kind: "link-down", A: "ToR1", B: "Agg1"},
	{Kind: "link-down", A: "ToR2", B: "Agg2"},
	{Kind: "link-down", A: "Agg1", B: "Core1"},
	{Kind: "link-down", A: "Agg2", B: "Core2"},
}

// recoveryOf inverts a fault event.
func recoveryOf(ev serve.WireEvent) serve.WireEvent {
	switch ev.Kind {
	case "switch-down":
		return serve.WireEvent{Kind: "switch-up", Switch: ev.Switch}
	case "link-down":
		return serve.WireEvent{Kind: "link-up", A: ev.A, B: ev.B}
	}
	return ev
}

// clearEvent converts a canonical active-fault key from a session status
// ("switch:X", "link:lo-hi", "degrade:X") into its recovery event.
func clearEvent(key string) (serve.WireEvent, error) {
	switch {
	case strings.HasPrefix(key, "switch:"):
		return serve.WireEvent{Kind: "switch-up", Switch: strings.TrimPrefix(key, "switch:")}, nil
	case strings.HasPrefix(key, "link:"):
		ends := strings.SplitN(strings.TrimPrefix(key, "link:"), "-", 2)
		if len(ends) != 2 {
			return serve.WireEvent{}, fmt.Errorf("malformed link fault key %q", key)
		}
		return serve.WireEvent{Kind: "link-up", A: ends[0], B: ends[1]}, nil
	case strings.HasPrefix(key, "degrade:"):
		return serve.WireEvent{Kind: "restore", Switch: strings.TrimPrefix(key, "degrade:")}, nil
	}
	return serve.WireEvent{}, fmt.Errorf("unknown fault key %q", key)
}

// checkingTransport audits every HTTP exchange for the robustness contract:
// no 5xx ever, and every 429 carries both a Retry-After header and a
// machine-readable kind. Bodies are restored for the caller.
type checkingTransport struct {
	inner  http.RoundTripper
	fiveXX atomic.Int64

	mu         sync.Mutex
	violations []string
}

func (t *checkingTransport) violate(format string, args ...any) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.violations) < 32 { // keep the report bounded
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

func (t *checkingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.inner.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if resp.StatusCode >= 500 {
		t.fiveXX.Add(1)
		t.violate("5xx from daemon: %d on %s %s", resp.StatusCode, req.Method, req.URL.Path)
	}
	if resp.StatusCode == http.StatusTooManyRequests {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		resp.Body = io.NopCloser(bytes.NewReader(raw))
		if resp.Header.Get("Retry-After") == "" {
			t.violate("429 without Retry-After on %s", req.URL.Path)
		}
		var body serve.ErrorResponse
		if json.Unmarshal(raw, &body) != nil || (body.Kind != "shed" && body.Kind != "draining") {
			t.violate("429 without backpressure kind on %s: %s", req.URL.Path, raw)
		}
	}
	return resp, nil
}

// stormSession is the harness's view of one tenant.
type stormSession struct {
	id   string
	base string // base artifact fingerprint

	mu     sync.Mutex
	active map[int]bool // index into faultTargets
}

// Run replays one storm and scores it.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	baseline := leak.Snapshot()

	srv := serve.NewServer(serve.Config{
		MaxInflight:      cfg.MaxInflight,
		QueueDepth:       cfg.QueueDepth,
		EnableTestFaults: true,
	})
	ts := httptest.NewServer(srv.Handler())

	res := &Result{Seed: cfg.Seed, Clients: cfg.Clients, Sessions: cfg.Sessions}
	transport := &checkingTransport{inner: ts.Client().Transport}
	httpc := &http.Client{Transport: transport}
	newClient := func() *serve.Client {
		return &serve.Client{BaseURL: ts.URL, HTTPClient: httpc, MaxRetries: 6, Backoff: 50 * time.Millisecond}
	}
	ctx := context.Background()

	// Tenants: distinct programs so sessions do not share cache entries.
	sessions := make([]*stormSession, cfg.Sessions)
	for i := range sessions {
		src := strings.Replace(stormSource, "[100000]", fmt.Sprintf("[%d]", 100001+i), 1)
		sr, err := newClient().NewSession(ctx, serve.CompileRequest{Source: src, Scope: stormScope, Topology: "testbed"})
		if err != nil {
			ts.Close()
			return nil, fmt.Errorf("churn: session %d: %w", i, err)
		}
		sessions[i] = &stormSession{id: sr.ID, base: sr.Compile.Fingerprint, active: map[int]bool{}}
	}

	var (
		next      atomic.Int64 // event ticket counter
		converged atomic.Int64
		latMu     sync.Mutex
		latencies []float64
	)
	deadline := time.Now().Add(cfg.Duration)
	start := time.Now()

	var wg sync.WaitGroup
	for w := 0; w < cfg.Clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Events) || time.Now().After(deadline) {
					return
				}
				// Per-ticket rng: deterministic in the ticket, independent
				// of goroutine scheduling.
				rng := rand.New(rand.NewSource(cfg.Seed<<20 ^ i))
				sess := sessions[rng.Intn(len(sessions))]

				if cfg.PanicEvery > 0 && i%int64(cfg.PanicEvery) == int64(cfg.PanicEvery/2) {
					injectPanic(ctx, c, transport, res)
				}
				if cfg.BurstEvery > 0 && cfg.BurstSize > 0 && i%int64(cfg.BurstEvery) == 0 {
					fireBurst(ctx, httpc, ts.URL, cfg.BurstSize, i, res)
				}
				if i%7 == 3 { // sprinkle control-plane table churn
					c.Tables(ctx, sess.id, []serve.TableEntry{
						{Extern: "vip_table", Key: uint64(i), Value: uint64(i) * 3},
					})
				}

				// Toggle a fault: active -> recovery, inactive -> failure.
				ti := rng.Intn(len(faultTargets))
				sess.mu.Lock()
				ev := faultTargets[ti]
				if sess.active[ti] {
					ev = recoveryOf(ev)
					delete(sess.active, ti)
				} else {
					sess.active[ti] = true
				}
				sess.mu.Unlock()

				t0 := time.Now()
				_, err := c.Recompile(ctx, sess.id, []serve.WireEvent{ev})
				if err == nil {
					converged.Add(1)
					latMu.Lock()
					latencies = append(latencies, float64(time.Since(t0).Microseconds())/1e3)
					latMu.Unlock()
				}
				// Typed failures (timeout under load, shed past retries) are
				// the daemon degrading as designed; the metrics record them.
			}
		}()
	}
	wg.Wait()
	stormDur := time.Since(start)

	// Recovery: clear every remaining fault and demand each session converge
	// back to its exact base artifacts. The daemon's status is the authority
	// on what is still down — the harness's own toggle ledger can drift when
	// an event request was shed past its retries.
	recStart := time.Now()
	rc := newClient()
	for _, sess := range sessions {
		if _, err := rc.Recompile(ctx, sess.id, nil); err != nil { // flush the queue
			transport.violate("pre-recovery barrier for session %s: %v", sess.id, err)
			continue
		}
		st, err := rc.Status(ctx, sess.id)
		if err != nil {
			transport.violate("pre-recovery status for session %s: %v", sess.id, err)
			continue
		}
		var clears []serve.WireEvent
		for _, key := range st.ActiveFaults {
			ev, err := clearEvent(key)
			if err != nil {
				transport.violate("session %s: %v", sess.id, err)
				continue
			}
			clears = append(clears, ev)
		}
		st, err = rc.Recompile(ctx, sess.id, clears)
		if err != nil {
			transport.violate("recovery recompile for session %s: %v", sess.id, err)
			continue
		}
		if st.Fingerprint != sess.base {
			transport.violate("session %s did not recover base artifacts", sess.id)
		}
		if len(st.ActiveFaults) != 0 {
			transport.violate("session %s still lists faults after recovery: %v", sess.id, st.ActiveFaults)
		}
	}
	res.RecoveryMs = float64(time.Since(recStart).Microseconds()) / 1e3

	m := srv.Metrics()

	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	err := srv.Drain(drainCtx)
	cancel()
	res.CleanDrain = err == nil
	if err != nil {
		transport.violate("drain: %v", err)
	}
	ts.Close()
	if err := leak.Settle(baseline, 5*time.Second); err != nil {
		res.LeakedGoroutines = leak.Snapshot() - baseline
		transport.violate("%v", err)
	}

	issued := next.Load()
	if issued > int64(cfg.Events) {
		issued = int64(cfg.Events)
	}
	res.Events = int(issued)
	res.Converged = converged.Load()
	res.DurationMs = float64(stormDur.Microseconds()) / 1e3
	if stormDur > 0 {
		res.Throughput = float64(converged.Load()) / stormDur.Seconds()
	}
	res.P50Ms, res.P99Ms = percentiles(latencies)
	res.Shed = m.Shed
	res.DegradedSkipVerify = m.DegradedSkipVerify
	res.DegradedStale = m.DegradedStale
	res.PanicsRecovered = m.PanicsRecovered
	res.Timeouts = m.Timeouts
	res.CacheHits = m.CacheHits
	res.Deduped = m.Deduped
	res.Coalesced = m.CoalescedEvents
	res.Recompiles = m.Recompiles
	res.RecompileErrors = m.RecompileErrors
	res.FiveXX = transport.fiveXX.Load()
	if res.PanicsInjected > 0 && res.PanicsRecovered == 0 {
		transport.violate("injected %d panics but the daemon recovered none", res.PanicsInjected)
	}
	if cfg.BurstEvery > 0 && cfg.BurstSize > 1 && res.BurstDeduped == 0 {
		transport.violate("bursts of identical requests produced no observable dedup")
	}
	transport.mu.Lock()
	res.Violations = transport.violations
	transport.mu.Unlock()
	return res, nil
}

// injectPanic fires a request with the panic header and demands the daemon
// answer it labelled (kind "internal") and keep serving.
func injectPanic(ctx context.Context, c *serve.Client, t *checkingTransport, res *Result) {
	atomic.AddInt64(&res.PanicsInjected, 1)
	pc := *c
	pc.MaxRetries = 1
	pc.Header = http.Header{"X-Lyra-Test-Panic": []string{"1"}}
	_, err := pc.Compile(ctx, serve.CompileRequest{Source: stormSource, Scope: stormScope, Topology: "testbed"})
	apiErr, ok := err.(*serve.APIError)
	if !ok || apiErr.Kind != "internal" {
		t.violate("injected panic not answered as kind internal: %v", err)
	}
}

// fireBurst launches an oversized burst of identical fresh requests (the
// burst id makes the program unique, so the first is a compulsory miss) and
// records how many were answered by single-flight dedup.
func fireBurst(ctx context.Context, httpc *http.Client, baseURL string, size int, burst int64, res *Result) {
	src := strings.Replace(stormSource, "[10000]", fmt.Sprintf("[%d]", 20000+burst), 1)
	// SkipVerify pins the cache key across admission tiers (the ladder would
	// otherwise fork identical requests into per-tier keys); the injected
	// stall keeps the single flight open long enough for the whole burst to
	// arrive and join it.
	req := serve.CompileRequest{Source: src, Scope: stormScope, Topology: "testbed", SkipVerify: true}
	var wg sync.WaitGroup
	for j := 0; j < size; j++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc := &serve.Client{BaseURL: baseURL, HTTPClient: httpc, MaxRetries: 6, Backoff: 50 * time.Millisecond,
				Header: http.Header{"X-Lyra-Test-Sleep": []string{"100"}}}
			resp, err := bc.Compile(ctx, req)
			if err != nil {
				// Shed past retries or timed out under load: degradation,
				// not a violation.
				return
			}
			switch {
			case resp.Deduped:
				atomic.AddInt64(&res.BurstDeduped, 1)
			case !resp.Cached:
				atomic.AddInt64(&res.BurstMisses, 1)
			}
		}()
	}
	wg.Wait()
}

// percentiles returns p50 and p99 of ms latencies.
func percentiles(ms []float64) (p50, p99 float64) {
	if len(ms) == 0 {
		return 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return sorted[i]
	}
	return at(0.50), at(0.99)
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lyra/internal/leak"
)

const lbSource = `
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

const lbScope = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]"

// lbSourceN varies the program text without changing its meaning enough to
// break compilation — each n yields a distinct cache key.
func lbSourceN(n int) string {
	return strings.Replace(lbSource, "[100000]", fmt.Sprintf("[%d]", 100000+n), 1)
}

func lbRequest() CompileRequest {
	return CompileRequest{Source: lbSource, Scope: lbScope, Topology: "testbed"}
}

// newTestDaemon boots a daemon on an httptest listener and registers
// teardown: drain, then close the listener.
func newTestDaemon(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	srv := NewServer(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
		ts.Close()
	})
	return srv, &Client{BaseURL: ts.URL, HTTPClient: ts.Client(), Header: http.Header{}}
}

func TestCompileEndpointAndCache(t *testing.T) {
	_, c := newTestDaemon(t, Config{MaxInflight: 2})
	ctx := context.Background()

	resp, err := c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if resp.Fingerprint == "" || len(resp.Switches) == 0 {
		t.Fatalf("empty compile response: %+v", resp)
	}
	if resp.Cached || resp.Deduped || len(resp.Degraded) != 0 {
		t.Fatalf("first compile mislabelled: %+v", resp)
	}

	again, err := c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("second compile: %v", err)
	}
	if !again.Cached {
		t.Fatalf("identical request not served from cache: %+v", again)
	}
	if again.Fingerprint != resp.Fingerprint {
		t.Fatalf("fingerprint changed across cache hit: %s vs %s", again.Fingerprint, resp.Fingerprint)
	}

	// Invalid input is a labelled 400, not a retry loop.
	_, err = c.Compile(ctx, CompileRequest{Source: lbSource, Scope: lbScope, Topology: "moebius"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Kind != "invalid" {
		t.Fatalf("bad topology: got %v", err)
	}
}

// TestCompileResponseCarriesPhaseTimings checks the per-phase breakdown on
// the wire: a fresh compile reports every pipeline phase with sane
// durations, and both the session-creation response and cache hits carry
// the breakdown of the compile that produced the artifact.
func TestCompileResponseCarriesPhaseTimings(t *testing.T) {
	_, c := newTestDaemon(t, Config{MaxInflight: 2})
	ctx := context.Background()

	resp, err := c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if len(resp.Phases) == 0 {
		t.Fatalf("compile response carries no phase timings: %+v", resp)
	}
	seen := map[string]bool{}
	var total float64
	for _, ph := range resp.Phases {
		if ph.Phase == "" {
			t.Fatalf("unnamed phase in %+v", resp.Phases)
		}
		if ph.Ms < 0 {
			t.Fatalf("phase %s has negative duration %v", ph.Phase, ph.Ms)
		}
		seen[ph.Phase] = true
		total += ph.Ms
	}
	for _, want := range []string{"parse", "solve", "codegen"} {
		if !seen[want] {
			t.Fatalf("phase %q missing from breakdown %+v", want, resp.Phases)
		}
	}
	if total > resp.CompileMs*1.5+1 {
		t.Fatalf("phase sum %.3fms wildly exceeds compile_ms %.3f", total, resp.CompileMs)
	}

	hit, err := c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("cached compile: %v", err)
	}
	if !hit.Cached || len(hit.Phases) != len(resp.Phases) {
		t.Fatalf("cache hit lost the phase breakdown: cached=%v phases=%+v", hit.Cached, hit.Phases)
	}

	sess, err := c.NewSession(ctx, CompileRequest{Source: lbSourceN(77), Scope: lbScope, Topology: "testbed"})
	if err != nil {
		t.Fatalf("session: %v", err)
	}
	defer c.Close(ctx, sess.ID)
	if len(sess.Compile.Phases) == 0 {
		t.Fatalf("session compile response carries no phase timings: %+v", sess.Compile)
	}
}

func TestDeadlineProducesTypedTimeout(t *testing.T) {
	srv, c := newTestDaemon(t, Config{MaxInflight: 2, EnableTestFaults: true})
	c.MaxRetries = 1
	c.Backoff = time.Millisecond
	// The injected stall outlives the request deadline, so the compiler is
	// entered with an already-expired context and must fail typed.
	c.Header.Set("X-Lyra-Test-Sleep", "500")

	req := lbRequest()
	req.DeadlineMs = 50
	_, err := c.Compile(context.Background(), req)
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError, got %v", err)
	}
	if apiErr.Kind != "timeout" || apiErr.Status != http.StatusRequestTimeout {
		t.Fatalf("want 408/timeout, got %d/%s", apiErr.Status, apiErr.Kind)
	}
	if got := srv.Metrics().Timeouts; got == 0 {
		t.Fatalf("timeout not counted: %+v", srv.Metrics())
	}
	// The daemon is still healthy after the timeout.
	c.Header.Del("X-Lyra-Test-Sleep")
	if _, err := c.Compile(context.Background(), lbRequest()); err != nil {
		t.Fatalf("compile after timeout: %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	srv, c := newTestDaemon(t, Config{MaxInflight: 2, EnableTestFaults: true})
	ctx := context.Background()

	c.Header.Set("X-Lyra-Test-Panic", "1")
	_, err := c.Compile(ctx, lbRequest())
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want APIError from injected panic, got %v", err)
	}
	if apiErr.Status != http.StatusUnprocessableEntity || apiErr.Kind != "internal" {
		t.Fatalf("panic must map to 422/internal (never 5xx), got %d/%s", apiErr.Status, apiErr.Kind)
	}
	if srv.Metrics().PanicsRecovered != 1 {
		t.Fatalf("panic not counted: %+v", srv.Metrics())
	}

	// The same daemon keeps serving.
	c.Header.Del("X-Lyra-Test-Panic")
	if _, err := c.Compile(ctx, lbRequest()); err != nil {
		t.Fatalf("compile after panic: %v", err)
	}
}

// waitInflight polls the daemon occupancy until it reaches want.
func waitInflight(t *testing.T, srv *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics().Inflight < want {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d, want %d", srv.Metrics().Inflight, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDegradationLadderAndShed walks the admission ladder end to end with a
// single long-running compile (plus dedup joiners) holding occupancy:
// tier 1 imposes skip-verify, tier 2 serves stale artifacts, and past
// capacity requests are shed with 429 + Retry-After.
func TestDegradationLadderAndShed(t *testing.T) {
	// Capacity 4: full <=2, skip-verify <=3, stale <=4, shed beyond.
	srv, c := newTestDaemon(t, Config{MaxInflight: 2, QueueDepth: 2, EnableTestFaults: true})
	ctx := context.Background()

	// Pre-warm the cache with a full-service artifact for the stale tier.
	warm, err := c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("warm compile: %v", err)
	}

	// sleepers: identical slow requests. Exactly one leads the single-flight
	// and sleeps inside a worker; the rest join and hold admission slots
	// only, leaving the second worker free.
	sleepCtx, cancelSleepers := context.WithCancel(ctx)
	defer cancelSleepers()
	sleeper := func() {
		sc := &Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient, MaxRetries: 1,
			Header: http.Header{"X-Lyra-Test-Sleep": []string{"8000"}}}
		sc.Compile(sleepCtx, CompileRequest{Source: lbSourceN(1), Scope: lbScope, Topology: "testbed"})
	}

	go sleeper()
	go sleeper()
	waitInflight(t, srv, 2)

	// Occupancy 2 -> this request is n=3: skip-verify tier, still compiled
	// (worker two is free).
	resp, err := c.Compile(ctx, CompileRequest{Source: lbSourceN(2), Scope: lbScope, Topology: "testbed"})
	if err != nil {
		t.Fatalf("skip-verify tier compile: %v", err)
	}
	if len(resp.Degraded) != 1 || resp.Degraded[0] != "skip-verify" {
		t.Fatalf("tier 1 not labelled: %+v", resp.Degraded)
	}

	go sleeper()
	waitInflight(t, srv, 3)

	// Occupancy 3 -> n=4: stale tier; the warm artifact is served without
	// consuming a solve slot.
	resp, err = c.Compile(ctx, lbRequest())
	if err != nil {
		t.Fatalf("stale tier compile: %v", err)
	}
	if !resp.Cached || len(resp.Degraded) == 0 || resp.Degraded[len(resp.Degraded)-1] != "stale" {
		t.Fatalf("tier 2 not labelled stale: %+v", resp)
	}
	if resp.Fingerprint != warm.Fingerprint {
		t.Fatalf("stale tier served a different artifact")
	}

	go sleeper()
	waitInflight(t, srv, 4)

	// Occupancy 4 = capacity -> n=5 is shed: 429, kind "shed", Retry-After.
	raw := &Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient, MaxRetries: 1, Backoff: time.Millisecond}
	_, err = raw.Compile(ctx, CompileRequest{Source: lbSourceN(3), Scope: lbScope, Topology: "testbed"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("want shed APIError, got %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.Kind != "shed" {
		t.Fatalf("want 429/shed, got %d/%s", apiErr.Status, apiErr.Kind)
	}
	if apiErr.RetryAfter <= 0 {
		t.Fatalf("shed response missing Retry-After hint")
	}

	m := srv.Metrics()
	if m.Shed == 0 || m.DegradedSkipVerify == 0 || m.DegradedStale == 0 {
		t.Fatalf("ladder counters not bumped: %+v", m)
	}
	cancelSleepers() // release the storm so Drain is fast
}

// TestMetricsEndpointCounts reads /v1/metrics through Client.Metrics around a
// cache miss, a cache hit and one shed request, and demands that every
// counter moved by exactly what those requests did.
func TestMetricsEndpointCounts(t *testing.T) {
	srv, c := newTestDaemon(t, Config{MaxInflight: 1, QueueDepth: 1})
	ctx := context.Background()
	before, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}

	if _, err := c.Compile(ctx, lbRequest()); err != nil {
		t.Fatalf("miss: %v", err)
	}
	if hit, err := c.Compile(ctx, lbRequest()); err != nil || !hit.Cached {
		t.Fatalf("hit: cached=%v err=%v", hit.Cached, err)
	}

	// Admission is filled to capacity by hand (TestDegradationLadderAndShed
	// gets there with real slow requests), so the next request is shed. It
	// is posted without the client, whose retries would be shed again.
	srv.occupancy.Add(2)
	body := fmt.Sprintf(`{"source": %q, "scope": %q, "topology": "testbed"}`, lbSourceN(1), lbScope)
	resp, err := c.HTTPClient.Post(c.BaseURL+"/v1/compile", "application/json", strings.NewReader(body))
	srv.occupancy.Add(-2)
	if err != nil {
		t.Fatalf("shed request: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request at capacity answered %d, want 429", resp.StatusCode)
	}

	after, err := c.Metrics(ctx)
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	for _, d := range []struct {
		name      string
		got, want int64
	}{
		{"cache_misses", after.CacheMisses - before.CacheMisses, 1},
		{"cache_hits", after.CacheHits - before.CacheHits, 1},
		{"shed", after.Shed - before.Shed, 1},
		{"completed", after.Completed - before.Completed, 2},
		{"deduped", after.Deduped - before.Deduped, 0},
		{"degraded", after.DegradedSkipVerify + after.DegradedStale - before.DegradedSkipVerify - before.DegradedStale, 0},
		// The miss, the hit, the shed request and this second read.
		{"requests", after.Requests - before.Requests, 4},
		{"inflight", after.Inflight, 0},
		{"capacity", after.Capacity, 2},
	} {
		if d.got != d.want {
			t.Errorf("%s moved by %d, want %d (before %+v, after %+v)", d.name, d.got, d.want, before, after)
		}
	}
}

func TestSingleFlightDedup(t *testing.T) {
	// MaxInflight comfortably above the request count keeps every request in
	// the full-service tier — one shared cache key, one flight.
	srv, c := newTestDaemon(t, Config{MaxInflight: 8, EnableTestFaults: true})
	ctx := context.Background()

	req := CompileRequest{Source: lbSourceN(9), Scope: lbScope, Topology: "testbed"}
	const n = 5
	type out struct {
		resp CompileResponse
		err  error
	}
	results := make(chan out, n)
	for i := 0; i < n; i++ {
		go func() {
			sc := &Client{BaseURL: c.BaseURL, HTTPClient: c.HTTPClient,
				Header: http.Header{"X-Lyra-Test-Sleep": []string{"300"}}}
			resp, err := sc.Compile(ctx, req)
			results <- out{resp, err}
		}()
	}
	var misses, deduped int
	var fp string
	for i := 0; i < n; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("concurrent compile: %v", r.err)
		}
		if fp == "" {
			fp = r.resp.Fingerprint
		} else if r.resp.Fingerprint != fp {
			t.Fatalf("fingerprints diverged across deduped requests")
		}
		switch {
		case r.resp.Deduped:
			deduped++
		case !r.resp.Cached:
			misses++
		}
	}
	if misses != 1 || deduped != n-1 {
		t.Fatalf("want 1 miss + %d deduped, got %d + %d", n-1, misses, deduped)
	}
	m := srv.Metrics()
	if m.CacheMisses != 1 || m.Deduped != int64(n-1) {
		t.Fatalf("dedup counters: %+v", m)
	}
}

func TestSessionCoalescingAndRecovery(t *testing.T) {
	srv, c := newTestDaemon(t, Config{MaxInflight: 2})
	ctx := context.Background()

	sess, err := c.NewSession(ctx, lbRequest())
	if err != nil {
		t.Fatalf("new session: %v", err)
	}
	base := sess.Compile.Fingerprint

	// A burst of 20 events: fault/recovery pairs outside the scope, so every
	// intermediate fault set stays solvable. The pump coalesces whatever
	// accumulates behind the first solve; the final state is fully recovered.
	var events []WireEvent
	for i := 0; i < 5; i++ {
		events = append(events,
			WireEvent{Kind: "switch-down", Switch: "Agg1"},
			WireEvent{Kind: "link-down", A: "Agg2", B: "Core1"},
			WireEvent{Kind: "switch-up", Switch: "Agg1"},
			WireEvent{Kind: "link-up", A: "Agg2", B: "Core1"},
		)
	}
	gen, err := c.Events(ctx, sess.ID, events)
	if err != nil {
		t.Fatalf("events: %v", err)
	}
	if gen != int64(len(events)) {
		t.Fatalf("generation = %d, want %d", gen, len(events))
	}

	// Synchronous barrier: recompile with no events waits for convergence.
	st, err := c.Recompile(ctx, sess.ID, nil)
	if err != nil {
		t.Fatalf("recompile barrier: %v", err)
	}
	if st.Applied != st.Generation || st.Generation != gen {
		t.Fatalf("not converged: applied %d, generation %d", st.Applied, st.Generation)
	}
	if st.CoalescedEvents == 0 {
		t.Fatalf("no events coalesced across a 20-event burst")
	}
	if len(st.ActiveFaults) != 0 {
		t.Fatalf("recovered session still lists faults: %v", st.ActiveFaults)
	}
	if st.Fingerprint != base {
		t.Fatalf("full recovery must restore the base artifacts: %s vs %s", st.Fingerprint, base)
	}

	// A real fault, synchronously: the session converges and labels it.
	st, err = c.Recompile(ctx, sess.ID, []WireEvent{{Kind: "switch-down", Switch: "Agg3"}})
	if err != nil {
		t.Fatalf("fault recompile: %v", err)
	}
	if len(st.ActiveFaults) != 1 || st.ActiveFaults[0] != "switch:Agg3" {
		t.Fatalf("active faults = %v", st.ActiveFaults)
	}
	if st.Degraded {
		t.Fatalf("successful recompile left session degraded: %+v", st)
	}

	// Recovery restores the exact base deployment (cache makes it a hit).
	st, err = c.Recompile(ctx, sess.ID, []WireEvent{{Kind: "switch-up", Switch: "Agg3"}})
	if err != nil {
		t.Fatalf("recovery recompile: %v", err)
	}
	if st.Fingerprint != base || len(st.ActiveFaults) != 0 {
		t.Fatalf("recovery did not restore base: %+v", st)
	}

	// Table updates stream into the live deployment.
	applied, err := c.Tables(ctx, sess.ID, []TableEntry{
		{Extern: "vip_table", Key: 12, Value: 34},
		{Switch: "Agg3", Extern: "vip_table", Key: 56, Value: 78},
	})
	if err != nil || applied != 2 {
		t.Fatalf("tables: applied %d, err %v", applied, err)
	}

	if srv.Metrics().CoalescedEvents == 0 {
		t.Fatalf("daemon coalescing counter untouched: %+v", srv.Metrics())
	}

	// Unknown sessions are labelled not-found.
	_, err = c.Status(ctx, "no-such-session")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Kind != "not-found" {
		t.Fatalf("unknown session: got %v", err)
	}

	if err := c.Close(ctx, sess.ID); err != nil {
		t.Fatalf("close session: %v", err)
	}
}

// TestDrainCleanNoLeak asserts the full daemon lifecycle leaves no
// goroutines behind and that a draining daemon refuses new work with a
// labelled 429.
func TestDrainCleanNoLeak(t *testing.T) {
	baseline := leak.Snapshot()

	srv := NewServer(Config{MaxInflight: 2})
	ts := httptest.NewServer(srv.Handler())
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client(), MaxRetries: 1}
	ctx := context.Background()

	sess, err := c.NewSession(ctx, lbRequest())
	if err != nil {
		t.Fatalf("new session: %v", err)
	}
	if _, err := c.Recompile(ctx, sess.ID, []WireEvent{{Kind: "switch-down", Switch: "Agg1"}}); err != nil {
		t.Fatalf("recompile: %v", err)
	}

	drainCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		t.Fatalf("drain not clean: %v", err)
	}

	// Post-drain requests are refused, labelled, and retry-hinted.
	_, err = c.Compile(ctx, lbRequest())
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Kind != "draining" {
		t.Fatalf("post-drain compile: got %v", err)
	}
	h, err := c.Health(ctx)
	if err != nil || !h.Draining || h.Status != "draining" {
		t.Fatalf("health after drain: %+v, %v", h, err)
	}

	ts.Close()
	leak.Check(t, baseline)
}

// TestDrainWhileRequestsInFlight drains a daemon while requests of all five
// kinds that join its in-flight set — compile, new session, events,
// recompile, tables — are arriving and running. Each must complete or be
// refused with a labelled 429 "draining"; the two slow compiles admitted
// before Drain began must complete, Drain must return cleanly once they are
// answered, and a wave sent while it waits must be refused whole. Run under
// -race, this is the check that Drain never waits on a group a request it let
// in is still about to join.
func TestDrainWhileRequestsInFlight(t *testing.T) {
	baseline := leak.Snapshot()
	srv := NewServer(Config{MaxInflight: 2, QueueDepth: 64, EnableTestFaults: true})
	ts := httptest.NewServer(srv.Handler())
	c := &Client{BaseURL: ts.URL, HTTPClient: ts.Client(), MaxRetries: 1}
	slow := &Client{BaseURL: ts.URL, HTTPClient: ts.Client(), MaxRetries: 1,
		Header: http.Header{"X-Lyra-Test-Sleep": []string{"300"}}}
	ctx := context.Background()
	sess, err := c.NewSession(ctx, lbRequest())
	if err != nil {
		t.Fatalf("new session: %v", err)
	}
	kinds := []func(i int) error{
		func(i int) error {
			_, err := c.Compile(ctx, CompileRequest{Source: lbSourceN(i), Scope: lbScope, Topology: "testbed"})
			return err
		},
		func(i int) error {
			_, err := c.NewSession(ctx, CompileRequest{Source: lbSourceN(i), Scope: lbScope, Topology: "testbed"})
			return err
		},
		func(int) error {
			_, err := c.Events(ctx, sess.ID, []WireEvent{{Kind: "switch-down", Switch: "Agg1"}})
			return err
		},
		func(int) error {
			_, err := c.Recompile(ctx, sess.ID, nil)
			return err
		},
		func(i int) error {
			_, err := c.Tables(ctx, sess.ID, []TableEntry{{Extern: "vip_table", Key: uint64(i), Value: 1}})
			return err
		},
	}
	// answered sorts an outcome: completed (true), refused as draining (false),
	// or a broken contract.
	answered := func(label string, err error) bool {
		var apiErr *APIError
		if err != nil && (!errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Kind != "draining") {
			t.Errorf("%s: %v, want success or 429 draining", label, err)
		}
		return err == nil
	}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // admitted before Drain: must complete
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := slow.Compile(ctx, CompileRequest{Source: lbSourceN(1000 + i), Scope: lbScope, Topology: "testbed"})
			if !answered(fmt.Sprintf("slow compile %d", i), err) {
				t.Errorf("slow compile %d, admitted before Drain, was refused", i)
			}
		}(i)
	}
	waitInflight(t, srv, 2)
	for i := 0; i < 20; i++ { // racing Drain: either outcome
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			time.Sleep(time.Duration(i%5) * time.Millisecond)
			answered(fmt.Sprintf("racing request %d", i), kinds[i%len(kinds)](i))
		}(i)
	}
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 30*time.Second)
		defer cancel()
		drained <- srv.Drain(dctx)
	}()
	for !srv.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	for i, kind := range kinds { // sent while Drain waits: all refused
		if answered(fmt.Sprintf("request %d during the drain", i), kind(2000+i)) {
			t.Errorf("request %d during the drain was served", i)
		}
	}
	if err := <-drained; err != nil {
		t.Errorf("drain not clean: %v", err)
	}
	wg.Wait()
	ts.Close()
	leak.Check(t, baseline)
}

// TestClientRejectsBadResponseBody: a 2xx whose body is cut short or is not
// the JSON it claims to be must surface as a typed error, not as a zero
// CompileResponse with a nil error.
func TestClientRejectsBadResponseBody(t *testing.T) {
	full := `{"fingerprint":"abc","switches":[{"switch":"ToR1"}]}`
	for _, tc := range []struct {
		name  string
		serve http.HandlerFunc
	}{
		{"cut short of its Content-Length", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Length", fmt.Sprint(len(full)))
			w.Write([]byte(full[:len(full)/2])) // the server closes the connection on the shortfall
		}},
		{"cut short without a length", func(w http.ResponseWriter, r *http.Request) {
			w.(http.Flusher).Flush() // chunked
			w.Write([]byte(full[:len(full)/2]))
		}},
		{"not JSON", func(w http.ResponseWriter, r *http.Request) {
			w.Write([]byte("<html>it works</html>"))
		}},
	} {
		ts := httptest.NewServer(tc.serve)
		resp, err := (&Client{BaseURL: ts.URL}).Compile(context.Background(), lbRequest())
		ts.Close()
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Kind != "bad-response" || apiErr.Status != http.StatusOK {
			t.Errorf("%s: err = %v, want an *APIError of kind bad-response on a 200", tc.name, err)
		}
		if apiErr != nil && apiErr.Retryable() {
			t.Errorf("%s: a garbled body must not be retried blindly", tc.name)
		}
		if tc.name == "not JSON" && resp.Fingerprint != "" {
			t.Errorf("%s: response carries a fingerprint %q", tc.name, resp.Fingerprint)
		}
	}
	// The daemon's own responses carry their length and are compact.
	_, cl := newTestDaemon(t, Config{})
	httpResp, err := http.Post(cl.BaseURL+"/v1/compile", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	raw, err := io.ReadAll(httpResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if httpResp.ContentLength != int64(len(raw)) {
		t.Errorf("Content-Length %d on a %d-byte body", httpResp.ContentLength, len(raw))
	}
	if strings.Count(string(raw), "\n") != 1 || !strings.HasSuffix(string(raw), "\n") {
		t.Errorf("response is not one compact line: %q", raw)
	}
}

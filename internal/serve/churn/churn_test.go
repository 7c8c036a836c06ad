package churn

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestStormSmoke runs the full-size churn storm end to end — 500 seeded
// events from 8 clients over 4 sessions, a panic every 25 events, an
// oversized 8-request burst every 50, against a daemon admitting 4 in
// flight with a queue of 8 — and demands the robustness contract holds. CI
// runs it under the race detector.
func TestStormSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("churn storm skipped in -short mode")
	}
	cfg := Config{
		Seed:        1,
		Events:      500,
		Clients:     8,
		Sessions:    4,
		Duration:    30 * time.Second,
		PanicEvery:  25,
		BurstEvery:  50,
		BurstSize:   8,
		MaxInflight: 4,
		QueueDepth:  8,
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("storm: %v", err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("storm violations: %v", res.Violations)
	}
	if res.FiveXX != 0 {
		t.Fatalf("daemon answered %d requests with 5xx", res.FiveXX)
	}
	if !res.CleanDrain {
		t.Fatalf("drain was not clean")
	}
	if res.LeakedGoroutines != 0 {
		t.Fatalf("leaked %d goroutines", res.LeakedGoroutines)
	}
	if res.Events != cfg.Events {
		t.Fatalf("issued %d events, want %d", res.Events, cfg.Events)
	}
	if res.Converged == 0 || res.Recompiles == 0 {
		t.Fatalf("storm did no work: %+v", res)
	}
	if res.PanicsInjected == 0 || res.PanicsRecovered == 0 {
		t.Fatalf("panic injection did not exercise recovery: %+v", res)
	}
	if res.BurstMisses == 0 || res.BurstDeduped == 0 {
		t.Fatalf("bursts did not demonstrate single-flight dedup: misses=%d deduped=%d",
			res.BurstMisses, res.BurstDeduped)
	}
	if res.P99Ms < res.P50Ms {
		t.Fatalf("percentiles inverted: p50=%f p99=%f", res.P50Ms, res.P99Ms)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestCheckingTransportFlagsBreaches: the storm's auditor must count a 5xx
// and report every 429 that lacks a Retry-After header or a backpressure
// kind, pass a well-formed 429 through clean, hand the caller the body it
// read, and keep its report bounded however many breaches there are.
func TestCheckingTransportFlagsBreaches(t *testing.T) {
	answer := func(status int, retryAfter, body string) *http.Response {
		h := http.Header{}
		if retryAfter != "" {
			h.Set("Retry-After", retryAfter)
		}
		return &http.Response{StatusCode: status, Header: h, Body: io.NopCloser(strings.NewReader(body))}
	}
	var next *http.Response
	tr := &checkingTransport{inner: roundTripFunc(func(*http.Request) (*http.Response, error) { return next, nil })}
	send := func(resp *http.Response) string {
		t.Helper()
		next = resp
		got, err := tr.RoundTrip(httptest.NewRequest("POST", "http://daemon/v1/compile", nil))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(got.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	send(answer(http.StatusInternalServerError, "", ""))
	if body := send(answer(http.StatusTooManyRequests, "", `{"error":"busy","kind":"compile-error"}`)); !strings.Contains(body, "busy") {
		t.Errorf("the audited 429 body did not reach the caller: %q", body)
	}
	send(answer(http.StatusTooManyRequests, "1", `{"error":"busy","kind":"shed"}`))
	if tr.fiveXX.Load() != 1 {
		t.Errorf("fiveXX = %d, want 1", tr.fiveXX.Load())
	}
	want := []string{"5xx from daemon: 500", "429 without Retry-After", "429 without backpressure kind"}
	if len(tr.violations) != len(want) {
		t.Fatalf("violations = %q, want one each of %q", tr.violations, want)
	}
	for i, w := range want {
		if !strings.HasPrefix(tr.violations[i], w) {
			t.Errorf("violation %d = %q, want %q...", i, tr.violations[i], w)
		}
	}

	for range 40 {
		send(answer(http.StatusBadGateway, "", ""))
	}
	if len(tr.violations) != 32 || tr.fiveXX.Load() != 41 {
		t.Errorf("after 40 more 5xx: %d violations kept and %d counted, want 32 and 41", len(tr.violations), tr.fiveXX.Load())
	}
}

// Package serve implements the Lyra control-plane daemon: a resident HTTP
// service multiplexing concurrent compile/recompile sessions over the
// library compiler (§6.3's operational loop, run as a service). The design
// goal is to *stay up*: bounded admission with backpressure, per-request
// deadlines with typed error kinds, per-request panic isolation, a shared
// content-addressed artifact cache with single-flight deduplication, fault
// events coalesced into incremental recompiles, and a degradation ladder
// that sheds optional work (verification, freshness) before it sheds
// requests. See DESIGN.md "The serve daemon".
package serve

// Wire types of the HTTP+JSON API. All endpoints are under /v1/.
//
//	POST   /v1/compile              one-shot compile (admission + cache)
//	POST   /v1/sessions             create a tenant session (compiles base)
//	GET    /v1/sessions/{id}        session status
//	POST   /v1/sessions/{id}/events enqueue fault/recovery events (202)
//	POST   /v1/sessions/{id}/recompile  enqueue events and wait until applied
//	POST   /v1/sessions/{id}/tables stream control-plane table entries
//	DELETE /v1/sessions/{id}        close a session
//	GET    /v1/healthz              liveness + draining flag
//	GET    /v1/metrics              counters snapshot
//
// Error responses carry a machine-readable Kind; the daemon reserves 5xx
// for "the daemon itself is broken" — every request-scoped failure,
// including a recovered panic, is a 4xx with its kind labelled.

// CompileRequest asks for one compilation. Topology, Chip and Dialect name
// its target as topo.ParseTarget reads them ("testbed" or "fattree:<k>").
type CompileRequest struct {
	Source   string `json:"source"`
	Scope    string `json:"scope"`
	Topology string `json:"topology"`
	Chip     string `json:"chip,omitempty"`
	Dialect  string `json:"dialect,omitempty"` // "p4_14" (default) | "p4_16"
	// SkipVerify requests the verification-free tier explicitly (the
	// admission ladder may also impose it under load).
	SkipVerify bool `json:"skip_verify,omitempty"`
	// DeadlineMs bounds this request's wall clock (0 selects the server
	// default; values above the server maximum are clamped).
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// IncludeCode inlines the generated per-switch code in the response
	// (summaries only otherwise — artifacts can be large).
	IncludeCode bool `json:"include_code,omitempty"`
}

// ArtifactSummary is one switch's share of a compile response.
type ArtifactSummary struct {
	Switch  string `json:"switch"`
	Dialect string `json:"dialect"`
	LoC     int    `json:"loc"`
	Tables  int    `json:"tables"`
	Code    string `json:"code,omitempty"`
}

// PhaseMs is one pipeline phase's wall-clock share of a compile, in
// execution order (parse, check, preprocess, analyze, scope, ...).
type PhaseMs struct {
	Phase string  `json:"phase"`
	Ms    float64 `json:"ms"`
}

// CompileResponse reports a completed compilation.
type CompileResponse struct {
	// Fingerprint content-hashes the full artifact set; equal fingerprints
	// mean byte-identical deployments (how dedup is observable).
	Fingerprint string            `json:"fingerprint"`
	Switches    []ArtifactSummary `json:"switches"`
	// Degraded names the concessions the admission ladder imposed, in
	// order ("skip-verify", "stale"). Empty means full service.
	Degraded []string `json:"degraded,omitempty"`
	// Cached and Deduped label how the artifact was obtained: a completed
	// cache entry, or by joining an identical in-flight compile.
	Cached    bool    `json:"cached"`
	Deduped   bool    `json:"deduped"`
	CompileMs float64 `json:"compile_ms"`
	SolveMs   float64 `json:"solve_ms"`
	// Phases is the per-phase timing breakdown of the compile that
	// produced this artifact. A cached or deduped response carries the
	// breakdown of the compile that populated the cache entry.
	Phases []PhaseMs `json:"phases,omitempty"`
}

// SessionResponse is returned on session creation.
type SessionResponse struct {
	ID      string          `json:"id"`
	Compile CompileResponse `json:"compile"`
}

// WireEvent is one network event. Kinds: "switch-down", "switch-up",
// "link-down", "link-up", "degrade", "restore" ("switch-up"/"link-up"/
// "restore" clear a previously applied fault of the same target).
type WireEvent struct {
	Kind   string `json:"kind"`
	Switch string `json:"switch,omitempty"`
	A      string `json:"a,omitempty"`
	B      string `json:"b,omitempty"`
	// Degrade factors in (0,1]; zero leaves the axis untouched.
	StageFactor  float64 `json:"stage_factor,omitempty"`
	MemoryFactor float64 `json:"memory_factor,omitempty"`
	PHVFactor    float64 `json:"phv_factor,omitempty"`
}

// EventsRequest enqueues fault/recovery events onto a session.
type EventsRequest struct {
	Events []WireEvent `json:"events"`
}

// EventsResponse acknowledges enqueued events. Generation is the session
// generation that will cover them once applied; poll the session status (or
// use /recompile) to observe Applied reach it.
type EventsResponse struct {
	Generation int64 `json:"generation"`
}

// TableEntry is one control-plane entry. An empty Switch targets the
// shared tables; a named Switch installs a per-switch entry (role
// assignment on PER-SW tables).
type TableEntry struct {
	Switch string `json:"switch,omitempty"`
	Extern string `json:"extern"`
	Key    uint64 `json:"key"`
	Value  uint64 `json:"value"`
}

// TablesRequest streams table updates into a session's live deployment.
type TablesRequest struct {
	Entries []TableEntry `json:"entries"`
}

// TablesResponse acknowledges applied table updates.
type TablesResponse struct {
	Applied int `json:"applied"`
}

// SessionStatus reports a session's current state.
type SessionStatus struct {
	ID string `json:"id"`
	// Generation counts enqueued events; Applied is the generation the
	// latest completed recompile covers. Applied == Generation means the
	// session has converged on the current fault set.
	Generation int64 `json:"generation"`
	Applied    int64 `json:"applied"`
	// ActiveFaults renders the fault set of the *latest converged* state.
	ActiveFaults []string `json:"active_faults,omitempty"`
	// Fingerprint hashes the artifacts currently being served.
	Fingerprint string `json:"fingerprint"`
	// Degraded is set while the served artifacts are stale relative to the
	// enqueued events or a recompile failure left the previous plan live.
	Degraded bool `json:"degraded"`
	// LastError describes the most recent failed recompile (kind labelled),
	// empty after a success.
	LastError     string `json:"last_error,omitempty"`
	LastErrorKind string `json:"last_error_kind,omitempty"`
	// Delta summarizes the latest successful recompile.
	Reprogram []string `json:"reprogram,omitempty"`
	Removed   []string `json:"removed,omitempty"`
	// CoalescedEvents counts events that were merged into a batch instead
	// of getting their own solve.
	CoalescedEvents int64 `json:"coalesced_events"`
	TableEntries    int64 `json:"table_entries"`
}

// ErrorResponse is the uniform error body. Kind is machine-readable:
// "invalid", "timeout", "infeasible", "internal", "compile-error", "shed",
// "draining", "not-found", "overflow".
type ErrorResponse struct {
	Error string `json:"error"`
	Kind  string `json:"kind"`
	// RetryAfterMs hints when to retry (shed/draining only; also sent as a
	// Retry-After header).
	RetryAfterMs int64 `json:"retry_after_ms,omitempty"`
}

// Health is the /v1/healthz body.
type Health struct {
	Status   string  `json:"status"` // "ok" | "draining"
	Draining bool    `json:"draining"`
	UptimeMs float64 `json:"uptime_ms"`
}

// MetricsSnapshot is the /v1/metrics body — a monotonic counters snapshot.
type MetricsSnapshot struct {
	UptimeMs float64 `json:"uptime_ms"`
	Sessions int64   `json:"sessions"`
	// Inflight counts admitted-but-unfinished units of work (HTTP compile
	// work plus session recompiles); Capacity is the admission bound.
	Inflight int64 `json:"inflight"`
	Capacity int64 `json:"capacity"`

	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	// Shed counts 429 backpressure responses; DegradedSkipVerify and
	// DegradedStale count ladder tiers 1 and 2.
	Shed               int64 `json:"shed"`
	DegradedSkipVerify int64 `json:"degraded_skip_verify"`
	DegradedStale      int64 `json:"degraded_stale"`
	Timeouts           int64 `json:"timeouts"`
	PanicsRecovered    int64 `json:"panics_recovered"`

	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	Deduped     int64 `json:"deduped"`

	Recompiles      int64 `json:"recompiles"`
	RecompileErrors int64 `json:"recompile_errors"`
	CoalescedEvents int64 `json:"coalesced_events"`
}

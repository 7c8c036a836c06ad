package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lyra"
	"lyra/internal/par"
)

// Config sizes the daemon.
type Config struct {
	// MaxInflight bounds concurrently *executing* compiles (the worker
	// pool size). <= 0 selects GOMAXPROCS.
	MaxInflight int
	// QueueDepth bounds additional admitted-but-waiting work beyond
	// MaxInflight; past MaxInflight+QueueDepth requests are shed with 429.
	// <= 0 selects 4x MaxInflight.
	QueueDepth int
	// DefaultDeadline bounds each request's wall clock when the client
	// sets none (<= 0 selects 15s); MaxDeadline caps client-requested
	// deadlines (<= 0 selects 60s).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RetryAfter is the backpressure hint attached to shed responses
	// (<= 0 selects 250ms).
	RetryAfter time.Duration
	// Parallelism bounds each compile's internal worker fan-out. The
	// default 1 keeps individual compiles sequential so MaxInflight alone
	// governs total CPU.
	Parallelism int
	// CacheEntries bounds the shared artifact cache (<= 0 selects 256).
	CacheEntries int
	// SessionQueue bounds each session's pending-event queue (<= 0
	// selects 1024); beyond it event posts are shed.
	SessionQueue int
	// EnableTestFaults honors the X-Lyra-Test-Panic and X-Lyra-Test-Sleep
	// request headers — the churn harness's fault-injection hooks. Leave
	// off in production.
	EnableTestFaults bool
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxInflight
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 15 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 60 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 250 * time.Millisecond
	}
	if c.Parallelism == 0 {
		c.Parallelism = 1
	}
	if c.SessionQueue <= 0 {
		c.SessionQueue = 1024
	}
	return c
}

// metrics is the daemon's counter set (atomic; snapshotted by /v1/metrics).
type metrics struct {
	requests, completed               atomic.Int64
	shed, degradedSkip, degradedStale atomic.Int64
	timeouts, panics                  atomic.Int64
	cacheHits, cacheMisses, deduped   atomic.Int64
	recompiles, recompileErrors       atomic.Int64
	coalesced                         atomic.Int64
}

// Server is the resident control-plane daemon. Create with NewServer, mount
// Handler on an http.Server, and stop with Drain.
type Server struct {
	cfg   Config
	start time.Time
	pool  *par.Pool
	cache *Cache
	mux   *http.ServeMux
	m     metrics

	occupancy atomic.Int64 // admitted-but-unfinished units of work
	// gate orders joining inflight against Drain: draining is set, and a
	// request joins inflight, only under it (see enter).
	gate     sync.Mutex
	draining atomic.Bool
	inflight sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   int64
}

// NewServer builds a daemon with the given configuration and starts its
// worker pool. The caller owns the HTTP listener; Drain stops everything.
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		start:    time.Now(),
		pool:     par.NewPool(cfg.MaxInflight),
		cache:    NewCache(cfg.CacheEntries),
		sessions: map[string]*Session{},
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/compile", s.handleCompile)
	s.mux.HandleFunc("POST /v1/sessions", s.handleNewSession)
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionStatus)
	s.mux.HandleFunc("POST /v1/sessions/{id}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/sessions/{id}/recompile", s.handleRecompile)
	s.mux.HandleFunc("POST /v1/sessions/{id}/tables", s.handleTables)
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleDeleteSession)
	s.mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return s
}

// Handler returns the daemon's HTTP handler, panic-isolation middleware
// included.
func (s *Server) Handler() http.Handler { return s.recoverer(s.mux) }

// Drain performs a graceful shutdown: new work is refused with
// 429/"draining", in-flight requests and session pumps finish, the worker
// pool stops. It returns nil on a clean drain and ctx.Err() if the context
// expired first (a non-clean drain: work was still running).
func (s *Server) Drain(ctx context.Context) error {
	s.gate.Lock()
	s.draining.Store(true)
	s.gate.Unlock()

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: in-flight requests outlived the deadline: %w", ctx.Err())
	}

	s.mu.Lock()
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = map[string]*Session{}
	s.mu.Unlock()
	for _, sess := range sessions {
		if err := sess.close(ctx); err != nil {
			return err
		}
	}
	s.pool.Close()
	return nil
}

// ---- admission ----

// admissionTier classifies how much service an admitted request gets.
type admissionTier int

const (
	tierFull admissionTier = iota
	tierSkipVerify
	tierStale
)

var errShed = errors.New("serve: admission queue full")
var errDraining = errors.New("serve: draining")

// enter joins a request to the in-flight work Drain waits for, or refuses it
// with errDraining once Drain has begun. The check and the join are one step
// under the lock Drain begins under, so Drain never waits on a group a request
// it did not refuse has yet to join. On success the caller must call
// s.inflight.Done once the request is answered.
func (s *Server) enter() error {
	s.gate.Lock()
	defer s.gate.Unlock()
	if s.draining.Load() {
		return errDraining
	}
	s.inflight.Add(1)
	return nil
}

// admit enters the request (see enter), reserves one unit of admission
// capacity and picks the degradation tier from the post-admission occupancy.
// The returned release, which gives both back, must be called exactly once.
// On failure (shed/draining) release is nil.
func (s *Server) admit() (release func(), tier admissionTier, err error) {
	if err := s.enter(); err != nil {
		return nil, 0, err
	}
	n := s.occupancy.Add(1)
	capacity := int64(s.cfg.MaxInflight + s.cfg.QueueDepth)
	if n > capacity {
		s.occupancy.Add(-1)
		s.inflight.Done()
		s.m.shed.Add(1)
		return nil, 0, errShed
	}
	switch {
	case n <= int64(s.cfg.MaxInflight):
		tier = tierFull
	case n <= int64(s.cfg.MaxInflight+s.cfg.QueueDepth/2):
		tier = tierSkipVerify
	default:
		tier = tierStale
	}
	return func() {
		s.occupancy.Add(-1)
		s.inflight.Done()
	}, tier, nil
}

// ---- request plumbing ----

// deadlineFor clamps the client-requested deadline into [1ms, MaxDeadline].
func (s *Server) deadlineFor(ms int) time.Duration {
	d := s.cfg.DefaultDeadline
	if ms > 0 {
		d = time.Duration(ms) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// errKind classifies an error into its wire kind and HTTP status. The
// daemon reserves 5xx for itself being broken: a recovered panic is a
// request-scoped failure (the request provoked a compiler bug; the daemon
// is still healthy) and maps to 422/"internal" — restart orchestrators
// must not bounce the daemon for it, and the churn harness asserts zero
// 5xx across a storm that injects panics deliberately.
func errKind(err error) (kind string, status int) {
	var internal *lyra.InternalError
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled), errors.Is(err, lyra.ErrTimeout):
		return "timeout", http.StatusRequestTimeout
	case errors.Is(err, lyra.ErrInfeasible):
		return "infeasible", http.StatusUnprocessableEntity
	case errors.As(err, &internal):
		return "internal", http.StatusUnprocessableEntity
	case errors.Is(err, par.ErrPoolClosed), errors.Is(err, errDraining):
		return "draining", http.StatusTooManyRequests
	case errors.Is(err, errShed):
		return "shed", http.StatusTooManyRequests
	default:
		return "compile-error", http.StatusUnprocessableEntity
	}
}

// wireBufs recycles the buffers request and response bodies pass through.
// A buffer is scratch for one body: it is cleared before it goes back, and
// one that grew past maxPooledBody is dropped rather than kept, so the pool
// holds no request's content and pins no large request's memory.
var wireBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

func wireBuf() *bytes.Buffer {
	b := wireBufs.Get().(*bytes.Buffer)
	b.Reset()
	return b
}

func releaseWireBuf(b *bytes.Buffer) {
	if b.Cap() <= maxPooledBody {
		all := b.Bytes()
		clear(all[:cap(all)])
		wireBufs.Put(b)
	}
}

// decodeBody reads a request body whole and decodes it into v.
func decodeBody(r *http.Request, v any) error {
	buf := wireBuf()
	defer releaseWireBuf(buf)
	if _, err := buf.ReadFrom(r.Body); err != nil {
		return err
	}
	return json.Unmarshal(buf.Bytes(), v)
}

// writeJSON encodes the body compactly, newline-terminated, into one buffer
// and sends it with its length, so the client can read it into a buffer of
// exactly that size.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := wireBuf()
	defer releaseWireBuf(buf)
	if err := json.NewEncoder(buf).Encode(body); err != nil { // a response value that cannot be marshalled is a bug: 422/"internal", like a panic
		status = http.StatusUnprocessableEntity
		buf.Reset()
		buf.WriteString(`{"error":"encoding response","kind":"internal"}` + "\n")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	w.Write(buf.Bytes()) // a failed write means the client is gone
}

// writeError emits the uniform error body; shed/draining responses carry
// the Retry-After backpressure hint.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	kind, status := errKind(err)
	if kind == "timeout" {
		s.m.timeouts.Add(1)
	}
	body := ErrorResponse{Error: err.Error(), Kind: kind}
	if status == http.StatusTooManyRequests {
		body.RetryAfterMs = s.cfg.RetryAfter.Milliseconds()
		w.Header().Set("Retry-After", strconv.FormatFloat(s.cfg.RetryAfter.Seconds(), 'f', 3, 64))
	}
	writeJSON(w, status, body)
}

func (s *Server) writeInvalid(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: msg, Kind: "invalid"})
}

// statusRecorder lets the recoverer know whether the handler already wrote
// a response before panicking.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	r.wrote = true
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	r.wrote = true
	return r.ResponseWriter.Write(b)
}

// recoverer is the per-request panic boundary: a panic anywhere below is
// converted to *lyra.InternalError and answered as a labelled 4xx; the
// daemon (and the panicking request's session) survives.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				if v == http.ErrAbortHandler {
					panic(v)
				}
				s.m.panics.Add(1)
				if !rec.wrote {
					s.writeError(rec, &lyra.InternalError{Value: v})
				}
			}
		}()
		s.m.requests.Add(1)
		next.ServeHTTP(rec, r)
	})
}

// testHooks applies the harness fault-injection headers (only when
// EnableTestFaults): X-Lyra-Test-Panic panics inside the request,
// X-Lyra-Test-Sleep: <ms> stalls the pooled compile slot, simulating a
// long solve (context-aware).
func (s *Server) testPanic(r *http.Request) {
	if s.cfg.EnableTestFaults && r.Header.Get("X-Lyra-Test-Panic") != "" {
		panic("injected test panic")
	}
}

func (s *Server) testSleep(ctx context.Context, r *http.Request) {
	if !s.cfg.EnableTestFaults {
		return
	}
	ms, err := strconv.Atoi(r.Header.Get("X-Lyra-Test-Sleep"))
	if err != nil || ms <= 0 {
		return
	}
	select {
	case <-time.After(time.Duration(ms) * time.Millisecond):
	case <-ctx.Done():
	}
}

// ---- compile endpoint ----

// compilerFor materializes a wire request into a library compiler.
func compilerFor(req CompileRequest, skipVerify bool, parallelism int) (*lyra.Compiler, error) {
	opts := []lyra.Option{
		lyra.WithSourceName("serve.lyra"),
		lyra.WithParallelism(parallelism),
	}
	switch strings.ToLower(req.Dialect) {
	case "", "p4_14", "p414":
	case "p4_16", "p416":
		opts = append(opts, lyra.WithDialect(lyra.P416))
	default:
		return nil, fmt.Errorf("unknown dialect %q", req.Dialect)
	}
	if skipVerify {
		opts = append(opts, lyra.WithSkipVerify())
	}
	return lyra.New(opts...), nil
}

// configKey renders the config axes that change artifacts or guarantees
// into cache-key components.
func configKey(req CompileRequest, skipVerify bool) []string {
	d := strings.ToLower(req.Dialect)
	if d == "" {
		d = "p4_14"
	}
	return []string{"dialect=" + d, "skipverify=" + strconv.FormatBool(skipVerify)}
}

func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.testPanic(r)
	var req CompileRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeInvalid(w, "bad request body: "+err.Error())
		return
	}
	if req.Source == "" || req.Scope == "" {
		s.writeInvalid(w, "source and scope are required")
		return
	}
	net, err := buildNetwork(req.Topology, req.Chip)
	if err != nil {
		s.writeInvalid(w, err.Error())
		return
	}

	release, tier, err := s.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	skipVerify := req.SkipVerify || tier >= tierSkipVerify
	degraded := []string(nil)
	if tier >= tierSkipVerify && !req.SkipVerify {
		degraded = append(degraded, "skip-verify")
		s.m.degradedSkip.Add(1)
	}
	netFP := networkFingerprint(net)
	key := cacheKey(req.Source, req.Scope, netFP, nil, configKey(req, skipVerify)...)

	// Stale tier: under heavy load, serve whatever completed artifact
	// already exists for this input — full-service or skip-verify flavor —
	// before consuming a solve slot.
	if tier >= tierStale {
		for _, k := range []string{key, cacheKey(req.Source, req.Scope, netFP, nil, configKey(req, !skipVerify)...)} {
			if res, ok := s.cache.Lookup(k); ok {
				s.m.degradedStale.Add(1)
				s.m.completed.Add(1)
				resp := compileResponse(res, req.IncludeCode)
				resp.Cached = true
				resp.Degraded = append(degraded, "stale")
				writeJSON(w, http.StatusOK, resp)
				return
			}
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMs))
	defer cancel()
	res, outcome, err := s.cache.Do(ctx, key, func() (*lyra.Result, error) {
		var out *lyra.Result
		var cerr error
		perr := s.pool.Do(ctx, func() {
			s.testSleep(ctx, r)
			c, e := compilerFor(req, skipVerify, s.cfg.Parallelism)
			if e != nil {
				cerr = e
				return
			}
			out, cerr = c.Compile(ctx, req.Source, req.Scope, net)
		})
		if perr != nil {
			return nil, perr
		}
		return out, cerr
	})
	switch outcome {
	case OutcomeHit:
		s.m.cacheHits.Add(1)
	case OutcomeDedup:
		s.m.deduped.Add(1)
	case OutcomeMiss:
		s.m.cacheMisses.Add(1)
	}
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.m.completed.Add(1)
	resp := compileResponse(res, req.IncludeCode)
	resp.Degraded = degraded
	resp.Cached = outcome == OutcomeHit
	resp.Deduped = outcome == OutcomeDedup
	writeJSON(w, http.StatusOK, resp)
}

func compileResponse(res *lyra.Result, includeCode bool) CompileResponse {
	sws := res.Switches()
	resp := CompileResponse{
		Fingerprint: res.ArtifactFingerprint(),
		CompileMs:   float64(res.CompileTime.Microseconds()) / 1e3,
		SolveMs:     float64(res.SolveTime.Microseconds()) / 1e3,
		Switches:    make([]ArtifactSummary, 0, len(sws)),
	}
	if len(res.Phases) > 0 {
		resp.Phases = make([]PhaseMs, 0, len(res.Phases))
	}
	for _, pt := range res.Phases {
		resp.Phases = append(resp.Phases, PhaseMs{
			Phase: string(pt.Phase),
			Ms:    float64(pt.Duration.Microseconds()) / 1e3,
		})
	}
	for _, sw := range sws {
		a := res.Artifact(sw)
		sum := ArtifactSummary{Switch: sw, Dialect: string(a.Dialect), LoC: a.LoC, Tables: a.Tables}
		if includeCode {
			sum.Code = a.Code
		}
		resp.Switches = append(resp.Switches, sum)
	}
	return resp
}

// ---- health + metrics ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := Health{Status: "ok", Draining: s.draining.Load(), UptimeMs: float64(time.Since(s.start).Microseconds()) / 1e3}
	if h.Draining {
		h.Status = "draining"
	}
	writeJSON(w, http.StatusOK, h)
}

// Metrics snapshots the daemon counters (also served at /v1/metrics).
func (s *Server) Metrics() MetricsSnapshot {
	s.mu.Lock()
	sessions := int64(len(s.sessions))
	s.mu.Unlock()
	return MetricsSnapshot{
		UptimeMs:           float64(time.Since(s.start).Microseconds()) / 1e3,
		Sessions:           sessions,
		Inflight:           s.occupancy.Load(),
		Capacity:           int64(s.cfg.MaxInflight + s.cfg.QueueDepth),
		Requests:           s.m.requests.Load(),
		Completed:          s.m.completed.Load(),
		Shed:               s.m.shed.Load(),
		DegradedSkipVerify: s.m.degradedSkip.Load(),
		DegradedStale:      s.m.degradedStale.Load(),
		Timeouts:           s.m.timeouts.Load(),
		PanicsRecovered:    s.m.panics.Load(),
		CacheHits:          s.m.cacheHits.Load(),
		CacheMisses:        s.m.cacheMisses.Load(),
		Deduped:            s.m.deduped.Load(),
		Recompiles:         s.m.recompiles.Load(),
		RecompileErrors:    s.m.recompileErrors.Load(),
		CoalescedEvents:    s.m.coalesced.Load(),
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}

// buildNetwork materializes a topology spec ("testbed" | "fattree:<k>").
func buildNetwork(spec, chip string) (*lyra.Network, error) {
	if spec == "" || spec == "testbed" {
		return lyra.Testbed(), nil
	}
	if k, ok := strings.CutPrefix(spec, "fattree:"); ok {
		n, err := strconv.Atoi(k)
		if err != nil || n < 2 {
			return nil, fmt.Errorf("bad fattree size %q", k)
		}
		model := lyra.Tofino32Q
		switch chip {
		case "", "Tofino-32Q":
		case "RMT":
			model = lyra.RMT
		case "Tofino-64Q":
			model = lyra.Tofino64Q
		case "SiliconOne":
			model = lyra.SiliconOne
		case "Trident-4":
			model = lyra.Trident4
		default:
			return nil, fmt.Errorf("unknown chip %q", chip)
		}
		return lyra.FatTreePod(n, model), nil
	}
	return nil, fmt.Errorf("unknown topology %q", spec)
}

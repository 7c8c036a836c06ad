package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"

	"lyra"
	"lyra/internal/faults"
)

// Session is one tenant's long-lived deployment: a program + scope compiled
// against a pristine base topology, plus the set of faults currently active
// on the network. Fault/recovery events stream in over the API and drive
// incremental recompiles from the base result; when events arrive faster
// than solves complete they are coalesced — one recompile covers the whole
// batch. The session always serves its latest successful artifacts: a
// failed or in-flight recompile leaves the previous plan live with the
// Degraded flag raised.
type Session struct {
	id  string
	srv *Server
	req CompileRequest
	net *lyra.Network // pristine base topology
	// netFP is net's canonical rendering, the topology part of every cache
	// key of the session: the base never changes, so it is rendered once.
	netFP string
	base  *lyra.Result // compiled on the pristine topology

	events    chan queuedEvent
	closed    chan struct{}
	closeOnce sync.Once
	pumpDone  chan struct{}

	mu        sync.Mutex
	gen       int64
	applied   int64
	appliedCh chan struct{}
	active    map[string]faults.Event
	cur       *lyra.Result
	sim       *lyra.Simulation
	tables    *lyra.Tables
	perSwitch []TableEntry
	lastErr   error
	delta     *lyra.Delta
	coalesced int64
	tableN    int64
	degraded  bool
}

type queuedEvent struct {
	ev  WireEvent
	gen int64
}

// faultKey canonicalizes an event's target so a recovery event can clear
// the matching fault: "switch:<name>", "link:<lo>-<hi>", "degrade:<name>".
func faultKey(ev WireEvent) (string, error) {
	switch ev.Kind {
	case "switch-down", "switch-up":
		if ev.Switch == "" {
			return "", fmt.Errorf("%s event needs a switch", ev.Kind)
		}
		return "switch:" + ev.Switch, nil
	case "link-down", "link-up":
		if ev.A == "" || ev.B == "" {
			return "", fmt.Errorf("%s event needs both endpoints", ev.Kind)
		}
		lo, hi := ev.A, ev.B
		if lo > hi {
			lo, hi = hi, lo
		}
		return "link:" + lo + "-" + hi, nil
	case "degrade", "restore":
		if ev.Switch == "" {
			return "", fmt.Errorf("%s event needs a switch", ev.Kind)
		}
		return "degrade:" + ev.Switch, nil
	}
	return "", fmt.Errorf("unknown event kind %q", ev.Kind)
}

// isRecovery reports whether the event clears a fault instead of adding one.
func isRecovery(ev WireEvent) bool {
	return ev.Kind == "switch-up" || ev.Kind == "link-up" || ev.Kind == "restore"
}

// toFault converts a fault-adding wire event into the library event.
func toFault(ev WireEvent) faults.Event {
	switch ev.Kind {
	case "switch-down":
		return faults.SwitchDown(ev.Switch)
	case "link-down":
		return faults.LinkDown(ev.A, ev.B)
	default: // degrade
		return faults.Degrade(ev.Switch, ev.StageFactor, ev.MemoryFactor, ev.PHVFactor)
	}
}

// scenario snapshots the active fault set as a deterministic Scenario plus
// its canonical key list (for the artifact cache). Caller holds sess.mu.
func (sess *Session) scenarioLocked(gen int64) (faults.Scenario, []string) {
	keys := make([]string, 0, len(sess.active))
	for k := range sess.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sc := faults.Scenario{Name: fmt.Sprintf("session-%s-gen%d", sess.id, gen)}
	for _, k := range keys {
		sc.Events = append(sc.Events, sess.active[k])
	}
	return sc, keys
}

// pump is the session's solver loop: it takes one queued event, drains
// whatever else has accumulated (coalescing), folds the batch into the
// active fault set, and runs a single recompile covering all of it.
func (sess *Session) pump() {
	defer close(sess.pumpDone)
	for {
		select {
		case <-sess.closed:
			return
		case first := <-sess.events:
			batch := []queuedEvent{first}
		drain:
			for {
				select {
				case more := <-sess.events:
					batch = append(batch, more)
				default:
					break drain
				}
			}
			sess.applyBatch(batch)
		}
	}
}

// applyBatch folds a coalesced event batch into the fault set and recompiles
// once. Failures keep the previous plan live (Degraded) — the session never
// dies with its network.
func (sess *Session) applyBatch(batch []queuedEvent) {
	if n := int64(len(batch) - 1); n > 0 {
		sess.srv.m.coalesced.Add(n)
		sess.mu.Lock()
		sess.coalesced += n
		sess.mu.Unlock()
	}
	sess.mu.Lock()
	for _, q := range batch {
		key, err := faultKey(q.ev)
		if err != nil {
			continue // validated at enqueue; defensive
		}
		if isRecovery(q.ev) {
			delete(sess.active, key)
		} else {
			sess.active[key] = toFault(q.ev)
		}
	}
	covered := batch[len(batch)-1].gen
	sc, faultSet := sess.scenarioLocked(covered)
	sess.mu.Unlock()

	srv := sess.srv
	srv.occupancy.Add(1)
	defer srv.occupancy.Add(-1)
	ctx, cancel := context.WithTimeout(context.Background(), srv.cfg.DefaultDeadline)
	defer cancel()

	key := cacheKey(sess.req.Source, sess.req.Scope, sess.netFP, faultSet, configKey(sess.req, false)...)
	var delta *lyra.Delta
	res, outcome, err := srv.cache.Do(ctx, key, func() (*lyra.Result, error) {
		var out *lyra.Result
		var cerr error
		perr := srv.pool.Do(ctx, func() {
			c, e := compilerFor(sess.req, false, srv.cfg.Parallelism)
			if e != nil {
				cerr = e
				return
			}
			out, delta, cerr = c.Recompile(ctx, sess.base, sc)
		})
		if perr != nil {
			return nil, perr
		}
		return out, cerr
	})
	switch outcome {
	case OutcomeHit:
		srv.m.cacheHits.Add(1)
	case OutcomeDedup:
		srv.m.deduped.Add(1)
	case OutcomeMiss:
		srv.m.cacheMisses.Add(1)
	}
	srv.m.recompiles.Add(1)

	sess.mu.Lock()
	if err != nil {
		srv.m.recompileErrors.Add(1)
		sess.lastErr = err
		sess.degraded = true
	} else {
		sess.lastErr = nil
		sess.degraded = false
		sess.cur = res
		if delta != nil {
			sess.delta = delta
		} else {
			sess.delta = nil // cache hit: artifacts unchanged relative to key
		}
		sess.rebuildSimLocked()
	}
	if covered > sess.applied {
		sess.applied = covered
	}
	close(sess.appliedCh)
	sess.appliedCh = make(chan struct{})
	sess.mu.Unlock()
}

// rebuildSimLocked rebuilds the live deployment for the current result and
// replays the accumulated per-switch table entries. Caller holds sess.mu.
func (sess *Session) rebuildSimLocked() {
	sim, err := sess.cur.Simulate(sess.tables)
	if err != nil {
		sess.sim = nil
		return
	}
	for _, e := range sess.perSwitch {
		sim.SetSwitchEntry(e.Switch, e.Extern, e.Key, e.Value)
	}
	sess.sim = sim
}

// waitApplied blocks until the session's applied generation reaches target,
// then returns the recompile error state at that point (nil after a
// success).
func (sess *Session) waitApplied(ctx context.Context, target int64) error {
	for {
		sess.mu.Lock()
		applied, ch, lastErr := sess.applied, sess.appliedCh, sess.lastErr
		sess.mu.Unlock()
		if applied >= target {
			return lastErr
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-sess.closed:
			return fmt.Errorf("serve: session %s closed", sess.id)
		}
	}
}

// status snapshots the session.
func (sess *Session) status() SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := SessionStatus{
		ID:              sess.id,
		Generation:      sess.gen,
		Applied:         sess.applied,
		Degraded:        sess.degraded || sess.applied < sess.gen,
		CoalescedEvents: sess.coalesced,
		TableEntries:    sess.tableN,
	}
	if sess.cur != nil {
		st.Fingerprint = sess.cur.ArtifactFingerprint()
	}
	keys := make([]string, 0, len(sess.active))
	for k := range sess.active {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	st.ActiveFaults = keys
	if sess.lastErr != nil {
		st.LastError = sess.lastErr.Error()
		st.LastErrorKind, _ = errKind(sess.lastErr)
	}
	if sess.delta != nil {
		st.Reprogram = sess.delta.Reprogram
		st.Removed = sess.delta.Removed
	}
	return st
}

// close stops the pump and waits for any in-flight batch to finish.
func (sess *Session) close(ctx context.Context) error {
	sess.closeOnce.Do(func() { close(sess.closed) })
	select {
	case <-sess.pumpDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: session %s drain: %w", sess.id, ctx.Err())
	}
}

// ---- session handlers ----

func (s *Server) handleNewSession(w http.ResponseWriter, r *http.Request) {
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

	release, _, err := s.admit()
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer release()

	// The base compile is always full service: it is the anchor every
	// incremental recompile reuses, so it must carry verification reports.
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(req.DeadlineMs))
	defer cancel()
	netFP := networkFingerprint(net)
	key := cacheKey(req.Source, req.Scope, netFP, nil, configKey(req, false)...)
	base, outcome, err := s.cache.Do(ctx, key, func() (*lyra.Result, error) {
		var out *lyra.Result
		var cerr error
		perr := s.pool.Do(ctx, func() {
			s.testSleep(ctx, r)
			c, e := compilerFor(req, false, s.cfg.Parallelism)
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

	s.mu.Lock()
	s.nextID++
	id := strconv.FormatInt(s.nextID, 10)
	sess := &Session{
		id:        id,
		srv:       s,
		req:       req,
		net:       net,
		netFP:     netFP,
		base:      base,
		events:    make(chan queuedEvent, s.cfg.SessionQueue),
		closed:    make(chan struct{}),
		pumpDone:  make(chan struct{}),
		appliedCh: make(chan struct{}),
		active:    map[string]faults.Event{},
		cur:       base,
		tables:    lyra.NewTables(),
	}
	sess.mu.Lock()
	sess.rebuildSimLocked()
	sess.mu.Unlock()
	s.sessions[id] = sess
	s.mu.Unlock()
	go sess.pump()

	s.m.completed.Add(1)
	resp := compileResponse(base, req.IncludeCode)
	resp.Cached = outcome == OutcomeHit
	resp.Deduped = outcome == OutcomeDedup
	writeJSON(w, http.StatusOK, SessionResponse{ID: id, Compile: resp})
}

func (s *Server) session(w http.ResponseWriter, r *http.Request) *Session {
	s.mu.Lock()
	sess := s.sessions[r.PathValue("id")]
	s.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{
			Error: "unknown session " + r.PathValue("id"), Kind: "not-found"})
	}
	return sess
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if sess := s.session(w, r); sess != nil {
		writeJSON(w, http.StatusOK, sess.status())
	}
}

// enqueueEvents validates and enqueues events, returning the generation
// covering them. A full queue sheds with errShed.
func (s *Server) enqueueEvents(sess *Session, events []WireEvent) (int64, error) {
	for _, ev := range events {
		if _, err := faultKey(ev); err != nil {
			return 0, fmt.Errorf("invalid event: %w", err)
		}
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for i, ev := range events {
		select {
		case sess.events <- queuedEvent{ev: ev, gen: sess.gen + 1}:
			sess.gen++
		default:
			s.m.shed.Add(1)
			return 0, fmt.Errorf("session event queue full after %d of %d events: %w",
				i, len(events), errShed)
		}
	}
	return sess.gen, nil
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.testPanic(r)
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := s.enter(); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.inflight.Done()
	var req EventsRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeInvalid(w, "bad request body: "+err.Error())
		return
	}
	if len(req.Events) == 0 {
		s.writeInvalid(w, "no events")
		return
	}
	gen, err := s.enqueueEvents(sess, req.Events)
	if err != nil {
		if errors.Is(err, errShed) {
			s.writeError(w, err)
		} else {
			s.writeInvalid(w, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusAccepted, EventsResponse{Generation: gen})
}

// handleRecompile is the synchronous flavor of handleEvents: enqueue the
// events (none is allowed — "wait for convergence"), then block until the
// covering generation is applied and report the outcome, typed.
func (s *Server) handleRecompile(w http.ResponseWriter, r *http.Request) {
	s.testPanic(r)
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := s.enter(); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.inflight.Done()
	var req EventsRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeInvalid(w, "bad request body: "+err.Error())
		return
	}
	gen, err := s.enqueueEvents(sess, req.Events)
	if err != nil {
		if errors.Is(err, errShed) {
			s.writeError(w, err)
		} else {
			s.writeInvalid(w, err.Error())
		}
		return
	}
	if gen == 0 { // no events ever enqueued: already converged on base
		writeJSON(w, http.StatusOK, sess.status())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.deadlineFor(0))
	defer cancel()
	if err := sess.waitApplied(ctx, gen); err != nil {
		s.writeError(w, err)
		return
	}
	s.m.completed.Add(1)
	writeJSON(w, http.StatusOK, sess.status())
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	s.testPanic(r)
	sess := s.session(w, r)
	if sess == nil {
		return
	}
	if err := s.enter(); err != nil {
		s.writeError(w, err)
		return
	}
	defer s.inflight.Done()
	var req TablesRequest
	if err := decodeBody(r, &req); err != nil {
		s.writeInvalid(w, "bad request body: "+err.Error())
		return
	}
	sess.mu.Lock()
	applied := 0
	for _, e := range req.Entries {
		if e.Extern == "" {
			continue
		}
		if e.Switch == "" {
			sess.tables.Set(e.Extern, e.Key, e.Value)
		} else {
			sess.perSwitch = append(sess.perSwitch, e)
			if sess.sim != nil {
				sess.sim.SetSwitchEntry(e.Switch, e.Extern, e.Key, e.Value)
			}
		}
		applied++
	}
	sess.tableN += int64(applied)
	sess.mu.Unlock()
	writeJSON(w, http.StatusOK, TablesResponse{Applied: applied})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	id := r.PathValue("id")
	sess := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if sess == nil {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: "unknown session " + id, Kind: "not-found"})
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.MaxDeadline)
	defer cancel()
	if err := sess.close(ctx); err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "closed"})
}

// Package lyra is a cross-platform language and compiler for data-plane
// programming on heterogeneous switching ASICs — a from-scratch Go
// reproduction of "Lyra: A Cross-Platform Language and Compiler for Data
// Plane Programming on Heterogeneous ASICs" (SIGCOMM 2020).
//
// A Lyra program describes packet processing once, against a
// one-big-pipeline abstraction; the compiler combines it with an algorithm
// scope specification and a network topology, encodes implementation and
// placement constraints into an SMT problem, and produces runnable
// chip-specific code (P4_14, P4_16, NPL) for every programmable switch in
// the target network.
//
// Quick start:
//
//	net := lyra.Testbed()
//	c := lyra.New(lyra.WithDialect(lyra.P416))
//	res, err := c.Compile(ctx, src,
//	    "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]",
//	    net)
//	for _, sw := range res.Switches() {
//	    fmt.Println(res.Artifact(sw).Code)
//	}
package lyra

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"lyra/internal/asic"
	"lyra/internal/backend"
	"lyra/internal/core"
	"lyra/internal/dataplane"
	"lyra/internal/encode"
	"lyra/internal/faults"
	"lyra/internal/ir"
	"lyra/internal/rewrite"
	"lyra/internal/smt"
	"lyra/internal/topo"
	"lyra/internal/verify"
)

// Re-exported topology and chip-model types. The compiler's building
// blocks live in internal packages; these aliases form the public surface
// used by examples, tools, and benchmarks.
type (
	// Network is a data-center topology of switches and links.
	Network = topo.Network
	// Switch is one network device with its ASIC model.
	Switch = topo.Switch
	// ChipModel describes a programmable ASIC's resources.
	ChipModel = asic.Model
	// Artifact is the generated code and metadata for one switch.
	Artifact = backend.Artifact
	// Report is a verification result for one generated artifact.
	Report = verify.Report
	// Tables is simulated control-plane table state.
	Tables = dataplane.Tables
	// Packet is a simulated packet.
	Packet = dataplane.Packet
	// SimContext supplies switch-environment values during simulation.
	SimContext = dataplane.Context
	// HopSnapshot is the packet state after one switch of a traced path
	// execution (divergence localization in differential testing).
	HopSnapshot = dataplane.HopSnapshot
)

// Chip models available for topologies (§5.4, Appendix A).
var (
	RMT        = asic.RMT
	Tofino32Q  = asic.Tofino32Q
	Tofino64Q  = asic.Tofino64Q
	SiliconOne = asic.SiliconOne
	Trident4   = asic.Trident4
	Tomahawk   = asic.Tomahawk
)

// Testbed returns the paper's §7 evaluation network: 4 Tofino ToRs,
// 4 Trident-4 Aggs, 2 Tofino cores in two pods.
func Testbed() *Network { return topo.Testbed() }

// FatTreePod returns one pod of a k-ary fat tree (k/2 ToR + k/2 Agg
// switches), the Figure 10 scalability topology.
func FatTreePod(k int, model *ChipModel) *Network { return topo.FatTreePod(k, model) }

// Dialect selects the P4 flavor emitted for P4-programmable chips.
type Dialect = backend.Dialect

// P4 dialects.
const (
	P414 = backend.DialectP414
	P416 = backend.DialectP416
)

// Objective selects the optimization metric (Appendix C.2).
type Objective = encode.Objective

// Optimization objectives.
const (
	// ObjectiveNone accepts the first feasible placement.
	ObjectiveNone = encode.ObjNone
	// ObjectiveMinPlacements minimizes total instruction placements.
	ObjectiveMinPlacements = encode.ObjMinPlacements
	// ObjectiveMinSwitches minimizes the number of programmed switches.
	ObjectiveMinSwitches = encode.ObjMinSwitches
	// ObjectivePreferSwitch maximizes use of the WithPreferSwitch switch.
	ObjectivePreferSwitch = encode.ObjPreferSwitch
)

// Typed solver errors. All budget errors satisfy errors.Is(err, ErrBudget);
// ErrTimeout and ErrConflictBudget discriminate which limit was hit.
var (
	// ErrBudget is the umbrella: the solver ran out of some budget.
	ErrBudget = smt.ErrBudget
	// ErrTimeout means the wall-clock deadline (SolveBudget or a context
	// deadline/cancellation) expired.
	ErrTimeout = smt.ErrTimeout
	// ErrConflictBudget means the conflict budget was exhausted.
	ErrConflictBudget = smt.ErrConflictBudget
	// ErrInfeasible means the program provably does not fit the network.
	ErrInfeasible = encode.ErrInfeasible
)

// Fault-injection surface (re-exported from internal/faults): scenarios
// describe network events, generators enumerate them deterministically, and
// Recompile recovers from them.
type (
	// Scenario is a named sequence of fault events.
	Scenario = faults.Scenario
	// FaultEvent is one network event (switch-down, link-down, degrade).
	FaultEvent = faults.Event
	// Delta reports which switches a recompilation must reprogram.
	Delta = core.Delta
	// Diagnostics is the solver's fallback-ladder trail. When a compile is
	// infeasible, Diagnostics.UnsatCore names the violated constraint
	// families (the solver's minimized failed-assumption core).
	Diagnostics = encode.Diagnostics
	// InfeasibleError is the concrete error behind ErrInfeasible when the
	// solver could name the violated constraint groups.
	InfeasibleError = encode.InfeasibleError
)

// Phase observability surface (re-exported from internal/core): every
// Result carries a per-phase timing breakdown, and an Observer can watch
// phases complete live.
type (
	// Phase names one stage of the compilation pipeline.
	Phase = core.Phase
	// PhaseTiming is one completed phase and its wall-clock duration.
	PhaseTiming = core.PhaseTiming
	// Observer receives a callback as each pipeline phase completes.
	Observer = core.Observer
	// ObserverFunc adapts a plain function to the Observer interface.
	ObserverFunc = core.ObserverFunc
	// SolverStats aggregates SAT-solver counters (decisions, propagations,
	// conflicts, restarts, ...) across every SMT instance of a compile,
	// including the incremental-interface counters: Solve calls, assumption
	// literals passed, failed-assumption cores extracted (and their total
	// size), learnt clauses carried across re-solves, and how many times a
	// constraint encoding was built (Encodes stays at the component count
	// when the fallback ladder and Recompile reuse encodings incrementally).
	SolverStats = smt.Stats
)

// Pipeline phases, in execution order.
const (
	// PhaseParse covers the front-end: parse, check, preprocess, analyze.
	PhaseParse = core.PhaseParse
	// PhaseScope is scope parsing and resolution over the topology.
	PhaseScope = core.PhaseScope
	// PhaseEncode is table synthesis plus SMT constraint construction.
	PhaseEncode = core.PhaseEncode
	// PhaseSolve is the SMT search, fallback attempts included.
	PhaseSolve = core.PhaseSolve
	// PhaseCodegen is per-switch code emission and plan fingerprinting.
	PhaseCodegen = core.PhaseCodegen
	// PhaseVerify is per-switch re-admission and lint of emitted code.
	PhaseVerify = core.PhaseVerify
)

// Phases lists every pipeline phase in execution order.
func Phases() []Phase { return core.Phases() }

// Rewrite-search surface (re-exported from internal/rewrite): WithOptimize
// runs a bounded, certified search over semantics-preserving program
// variants before placement; the account lands in Result.Optimization.
type (
	// OptimizeOptions bounds and seeds one rewrite search.
	OptimizeOptions = rewrite.Options
	// Optimization is the rewrite-search report: rules applied, candidates
	// explored/deduped/pruned/solved, certification outcomes, cost deltas.
	Optimization = rewrite.Report
	// RewriteRule is one local rewrite; OptimizeOptions.Rules overrides the
	// built-in library (tests inject deliberately broken rules to prove
	// certification rejects them).
	RewriteRule = rewrite.Rule
)

// Fault-event constructors.
var (
	// SwitchDown fails a switch, removing it and its links.
	SwitchDown = faults.SwitchDown
	// LinkDown fails the link between two switches.
	LinkDown = faults.LinkDown
	// Degrade scales a switch's ASIC resources by the given factors.
	Degrade = faults.Degrade
)

// Deterministic scenario generators.
var (
	// SingleSwitchFailures yields one switch-down scenario per switch.
	SingleSwitchFailures = faults.SingleSwitchFailures
	// SingleLinkFailures yields one link-down scenario per link.
	SingleLinkFailures = faults.SingleLinkFailures
	// KRandomFaults yields k distinct random faults from a seeded RNG.
	KRandomFaults = faults.KRandomFaults
)

// InternalError wraps a panic that escaped the compiler pipeline. The
// compiler is supposed to report all failures as ordinary errors; a panic
// reaching the API boundary is a bug, surfaced with its stack rather than
// crashing the embedding process (a network controller mid-failover).
type InternalError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the point of recovery.
	Stack []byte
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("lyra: internal error: %v", e.Value)
}

// recoverInternal converts a panic into an *InternalError assigned to *errp.
func recoverInternal(errp *error) {
	if v := recover(); v != nil {
		*errp = &InternalError{Value: v, Stack: debug.Stack()}
	}
}

// Pipeline indirection points, swapped by tests to exercise the panic
// boundary without corrupting a real compile.
var (
	corePipeline      = core.CompileContext
	recompilePipeline = core.Recompile
)

// Compiler is a reusable, immutable compiler configuration. The zero-value
// configuration (from New with no options) compiles P4_14 with no
// optimization objective, full verification, and a worker pool sized to
// GOMAXPROCS. A Compiler is safe for concurrent use: each Compile call
// carries its own state.
type Compiler struct {
	// cfg is the pipeline request every compile starts from: options write
	// its fields, and a compile copies it and fills in the program, the
	// scope specification and the network.
	cfg core.Request
}

// Option configures a Compiler.
type Option func(*Compiler)

// New returns a Compiler with the given options applied.
func New(opts ...Option) *Compiler {
	c := &Compiler{}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithDialect selects the P4 flavor emitted for P4-programmable chips
// (default P414).
func WithDialect(d Dialect) Option { return func(c *Compiler) { c.cfg.Dialect = d } }

// WithObjective selects the placement optimization objective (default
// ObjectiveNone: first feasible placement).
func WithObjective(o Objective) Option { return func(c *Compiler) { c.cfg.Objective = o } }

// WithPreferSwitch sets ObjectivePreferSwitch and names the switch to load
// up (Appendix C.2).
func WithPreferSwitch(sw string) Option {
	return func(c *Compiler) {
		c.cfg.Objective = ObjectivePreferSwitch
		c.cfg.PreferSwitch = sw
	}
}

// WithSolveBudget bounds total solver work, fallback attempts included
// (0 = the 120s default).
func WithSolveBudget(d time.Duration) Option { return func(c *Compiler) { c.cfg.SolveBudget = d } }

// WithParallelism bounds the worker pools used for component solving,
// per-switch code emission, and verification. n <= 0 selects GOMAXPROCS;
// n == 1 forces a fully sequential pipeline. The compiled result is
// byte-identical at every setting — only wall-clock time changes.
func WithParallelism(n int) Option { return func(c *Compiler) { c.cfg.Parallelism = n } }

// WithObserver registers a phase observer, called inline as each pipeline
// phase completes.
func WithObserver(o Observer) Option { return func(c *Compiler) { c.cfg.Observer = o } }

// WithSkipVerify disables the post-hoc admission verification.
func WithSkipVerify() Option { return func(c *Compiler) { c.cfg.SkipVerify = true } }

// WithSourceName sets the file name used in diagnostics (default
// "input.lyra").
func WithSourceName(name string) Option { return func(c *Compiler) { c.cfg.SourceName = name } }

// WithLazyPaths does nothing: every compile streams its flow paths under one
// fixed budget, past which it fails with topo.ErrPathLimit. It stays because
// bench/ calls it; ROADMAP item 1 deletes it.
func WithLazyPaths(maxPaths int64) Option { return func(*Compiler) {} }

// WithOptimize enables the rewrite search: before placement, the compiler
// explores semantics-preserving merge/split/reorder/reshape/widen variants
// of the program, scores them with a two-level cost model (synthesized
// table totals, then a real bounded solve), certifies the best one
// equivalent on seeded traces on both execution tiers, and compiles
// whichever program won. The zero OptimizeOptions value selects sensible
// bounded defaults; the search's account is in Result.Optimization.
func WithOptimize(opts OptimizeOptions) Option {
	return func(c *Compiler) { o := opts; c.cfg.Optimize = &o }
}

// Compile runs the full Lyra pipeline — parse, check, preprocess, analyze,
// synthesize, encode, solve, translate, verify — on the given program text,
// scope specification (§3.3, Figure 7), and target topology. Cancelling ctx
// (or hitting its deadline) aborts the SMT solve at its next poll point and
// returns an error satisfying errors.Is(err, ErrTimeout).
func (c *Compiler) Compile(ctx context.Context, source, scopeSpec string, net *Network) (res *Result, err error) {
	defer recoverInternal(&err)
	if net != nil {
		// The result keeps its own view of the topology (Clone shares all
		// storage): a Recompile decides what a fault touched by comparing
		// against the network the plan was made on, which therefore must not
		// move when the caller later edits theirs.
		net = net.Clone()
	}
	creq := c.coreRequest(source, scopeSpec, net)
	cres, err := corePipeline(ctx, creq)
	res = wrapResult(cres, creq, net)
	if err != nil {
		return res, fmt.Errorf("lyra: %w", err)
	}
	return res, nil
}

// Recompile re-solves a previous compilation after the network suffers the
// given fault scenario (§6.3's incremental loop), under this Compiler's
// configuration. The degraded topology is derived by applying sc to a clone
// of prev's network; the original Network is never mutated. Front-end work
// is reused and switches whose plan slice is unchanged keep their previous
// artifact byte-for-byte — the Delta lists exactly which devices need
// reprogramming.
func (c *Compiler) Recompile(ctx context.Context, prev *Result, sc Scenario) (res *Result, delta *Delta, err error) {
	defer recoverInternal(&err)
	if prev == nil || prev.cres == nil {
		return nil, nil, fmt.Errorf("lyra: recompile requires a completed compilation")
	}
	degraded, err := sc.Applied(prev.net)
	if err != nil {
		return nil, nil, fmt.Errorf("lyra: applying scenario %s: %w", sc.Name, err)
	}
	creq := c.coreRequest(prev.creq.Source, prev.creq.ScopeSpec, degraded)
	creq.SourceName = prev.creq.SourceName
	cres, delta, err := recompilePipeline(ctx, prev.cres, creq, degraded)
	res = wrapResult(cres, creq, degraded)
	if err != nil {
		return res, delta, fmt.Errorf("lyra: recompile after %s: %w", sc.Name, err)
	}
	return res, delta, nil
}

// coreRequest is the compiler's configuration with the compile's inputs
// filled in.
func (c *Compiler) coreRequest(source, scopeSpec string, net *Network) core.Request {
	req := c.cfg
	req.Source, req.ScopeSpec, req.Network = source, scopeSpec, net
	return req
}

// Result is a successful compilation.
type Result struct {
	// Artifacts maps switch name to its generated code.
	Artifacts map[string]*Artifact
	// Reports holds per-switch verification results (nil with SkipVerify).
	Reports []Report
	// Fingerprints content-hashes each programmed switch's plan slice;
	// Recompile compares them to decide which devices need new code.
	Fingerprints map[string]string
	// Diagnostics records the solver's fallback ladder: every attempt and
	// every concession (nil means the field was not populated).
	Diagnostics *Diagnostics
	// Phases is the per-phase timing breakdown (parse, scope, encode,
	// solve, codegen, verify) in pipeline order. CompileTime and SolveTime
	// are derived views of the same clock.
	Phases []PhaseTiming
	// SolverStats aggregates SAT-solver counters across every SMT instance
	// solved for this result.
	SolverStats SolverStats
	// SolveInstances counts the independent SMT instances solved: >1 when
	// disjoint algorithm scopes let the placement problem split into
	// components solved concurrently.
	SolveInstances int
	// CompileTime is the wall-clock cost of the whole pipeline.
	CompileTime time.Duration
	// SolveTime is the SMT portion.
	SolveTime time.Duration
	// Optimization is the rewrite-search report when the compile ran with
	// WithOptimize (nil otherwise): rules applied, candidates explored and
	// pruned, certification outcomes, and the cost delta.
	Optimization *Optimization

	plan *encode.Plan
	irp  *ir.Program
	cres *core.Result
	creq core.Request
	net  *Network

	fp *artifactFingerprint
}

// artifactFingerprint is a Result's ArtifactFingerprint, computed once.
type artifactFingerprint struct {
	once sync.Once
	hex  string
}

// Network returns the topology this result was compiled against (after
// Recompile, the degraded one). It is the caller's own copy: mutating it
// disturbs neither this result nor any result recompiled from it.
func (r *Result) Network() *Network { return r.net.Clone() }

// ArtifactFingerprint content-hashes the complete artifact set — every
// switch's generated code and control-plane stub, in sorted switch order.
// Two Results with equal fingerprints are byte-identical deployments; the
// serve daemon uses this to prove that deduplicated concurrent compiles
// and cache hits really handed every caller the same artifacts.
//
// A Result's artifacts do not change, so the value is computed once. The
// texts are fed to the hash through one small buffer rather than copied
// whole.
func (r *Result) ArtifactFingerprint() string {
	r.fp.once.Do(func() {
		h := sha256.New()
		buf := make([]byte, 0, 1024)
		text := func(s string) {
			for len(s) > 0 {
				n := copy(buf[:cap(buf)], s)
				h.Write(buf[:n])
				s = s[n:]
			}
			h.Write([]byte{0})
		}
		for _, sw := range r.Switches() {
			a := r.Artifacts[sw]
			buf = append(append(append(buf[:0], sw...), 0), a.Dialect...)
			buf = strconv.AppendInt(append(buf, 0), int64(len(a.Code)), 10)
			h.Write(append(buf, 0))
			text(a.Code)
			text(a.ControlPlane)
		}
		r.fp.hex = hex.EncodeToString(h.Sum(buf[:0]))
	})
	return r.fp.hex
}

func wrapResult(cres *core.Result, creq core.Request, net *Network) *Result {
	if cres == nil {
		return nil
	}
	return &Result{
		Artifacts:      cres.Artifacts,
		Reports:        cres.Reports,
		Fingerprints:   cres.Fingerprints,
		Diagnostics:    cres.Diagnostics,
		Phases:         cres.Phases,
		SolverStats:    cres.SolverStats,
		SolveInstances: cres.SolveInstances,
		CompileTime:    cres.CompileTime,
		SolveTime:      cres.SolveTime,
		Optimization:   cres.Optimization,
		plan:           cres.Plan,
		irp:            cres.IR,
		cres:           cres,
		creq:           creq,
		net:            net,
		fp:             &artifactFingerprint{},
	}
}

// Switches lists the switches that received code, sorted.
func (r *Result) Switches() []string {
	out := make([]string, 0, len(r.Artifacts))
	for sw := range r.Artifacts {
		out = append(out, sw)
	}
	sort.Strings(out)
	return out
}

// Artifact returns the generated code for one switch (nil if none).
func (r *Result) Artifact(sw string) *Artifact { return r.Artifacts[sw] }

// PhaseDuration returns the recorded duration of one pipeline phase
// (0 if the phase did not run, e.g. verify under WithSkipVerify).
func (r *Result) PhaseDuration(p Phase) time.Duration {
	for _, t := range r.Phases {
		if t.Phase == p {
			return t.Duration
		}
	}
	return 0
}

// PlacedSwitches returns the switches hosting at least one instruction of
// the named algorithm, sorted (empty when the algorithm placed nothing).
// PER-SW deployments yield one entry per copy; MULTI-SW deployments yield
// the hosts the solver chose.
func (r *Result) PlacedSwitches(alg string) []string {
	if hosts := r.plan.Hosts(alg); hosts != nil {
		return hosts
	}
	return []string{}
}

// Shards reports how an extern variable was split: switch -> entries, in a
// map of the caller's (empty when the extern is placed nowhere).
func (r *Result) Shards(extern string) map[string]int64 { return r.plan.ShardsOf(extern) }

// FlowPaths returns the flow paths of a MULTI-SW algorithm's scope, sorted.
// The budget that could refuse the list is the one the compile already
// enumerated the same paths under, so a completed Result has it.
func (r *Result) FlowPaths(alg string) [][]string {
	if rs := r.plan.Input.Scopes[alg]; rs != nil {
		paths, _ := rs.PathList()
		return paths
	}
	return nil
}

// WriteTo writes each artifact to dir/<switch>.<ext> plus the control-plane
// stubs to dir/<switch>_cp.py.
func (r *Result) WriteTo(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for sw, art := range r.Artifacts {
		ext := ".p4"
		if art.Dialect == "NPL" {
			ext = ".npl"
		}
		if err := os.WriteFile(filepath.Join(dir, sw+ext), []byte(art.Code), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, sw+"_cp.py"), []byte(art.ControlPlane), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// Simulation wraps the packet-level data-plane simulator: it executes both
// the reference one-big-pipeline semantics and the compiled distributed
// deployment, standing in for the paper's hardware testbed.
type Simulation struct {
	res    *Result
	dep    *dataplane.Deployment
	tables *Tables
}

// NewTables returns empty control-plane table state.
func NewTables() *Tables { return dataplane.NewTables() }

// NewPacket returns an empty packet.
func NewPacket() *Packet { return dataplane.NewPacket() }

// Simulate deploys the compiled result with the given table contents.
func (r *Result) Simulate(tables *Tables) (*Simulation, error) {
	dep, err := dataplane.NewDeployment(r.plan, tables)
	if err != nil {
		return nil, err
	}
	return &Simulation{res: r, dep: dep, tables: tables}, nil
}

// RunReference executes the source program's one-big-pipeline semantics.
func (s *Simulation) RunReference(ctx *SimContext, pkt *Packet) (*Packet, error) {
	return dataplane.RunReference(s.res.irp, s.tables, ctx, pkt)
}

// RunPath pushes a packet through the deployed network along a flow path.
func (s *Simulation) RunPath(path []string, ctx *SimContext, pkt *Packet) (*Packet, error) {
	return s.dep.RunPath(path, ctx, pkt)
}

// RunPathTraced is RunPath with a per-hop packet snapshot after every
// switch, used by failure reports to localize where along a path the
// distributed execution departs from the reference.
func (s *Simulation) RunPathTraced(path []string, ctx *SimContext, pkt *Packet) (*Packet, []HopSnapshot, error) {
	return s.dep.RunPathTraced(path, ctx, pkt)
}

// RunPathCompiled is RunPath executed by the closure-threaded compiled
// backend instead of the tree-walking interpreter. The two are
// byte-identical by construction (the difftest oracle cross-checks them);
// the compiled backend is the fast path for traffic replay.
func (s *Simulation) RunPathCompiled(path []string, ctx *SimContext, pkt *Packet) (*Packet, error) {
	return s.dep.RunPathCompiled(path, ctx, pkt)
}

// Deployment exposes the underlying deployment for batched and streaming
// traffic replay through the execution tiers (ExecutorFor, OpenStream).
func (s *Simulation) Deployment() *dataplane.Deployment { return s.dep }

// Serialize packs a packet's valid headers into wire bytes per the
// program's parse graph, appending the payload.
func (s *Simulation) Serialize(pkt *Packet, payload []byte) ([]byte, error) {
	return dataplane.Serialize(s.res.irp, pkt, payload)
}

// ParseBytes runs the program's parse graph over raw bytes, returning the
// parsed packet and the unconsumed payload.
func (s *Simulation) ParseBytes(data []byte) (*Packet, []byte, error) {
	return dataplane.ParseBytes(s.res.irp, data)
}

// RunPathBytes is the bytes-in/bytes-out variant of RunPath: the wire
// packet is parsed, pushed through the deployed switches along the path,
// and re-serialized — headers inserted by the data plane (INT probes,
// metadata) appear as new bytes on the wire.
func (s *Simulation) RunPathBytes(path []string, ctx *SimContext, data []byte) ([]byte, error) {
	pkt, payload, err := s.ParseBytes(data)
	if err != nil {
		return nil, err
	}
	out, err := s.RunPath(path, ctx, pkt)
	if err != nil {
		return nil, err
	}
	return s.Serialize(out, payload)
}

// SetSwitchEntry installs a control-plane entry on one switch only (role
// assignment for PER-SW tables, e.g. the INT sink filter).
func (s *Simulation) SetSwitchEntry(sw, extern string, key, value uint64) {
	s.dep.SetSwitchEntry(sw, extern, key, value)
}

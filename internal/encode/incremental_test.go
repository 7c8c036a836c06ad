package encode

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/scope"
	"lyra/internal/smt"
	"lyra/internal/topo"
)

// TestLadderReusesEncodingAcrossRungs is the incremental-solving regression
// test: when the budget is escalated, the retry must re-solve the SAME
// persistent solver — one encoding build, learnt clauses carried over, and
// exactly one Solve call per recorded attempt.
func TestLadderReusesEncodingAcrossRungs(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	plan, err := solve(in, DefaultOptions(), attemptCfg{conflictBudget: 1})
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	d := plan.Diagnostics
	if len(d.Attempts) != 2 {
		t.Fatalf("attempts = %+v, want 2", d.Attempts)
	}
	if plan.Stats.Encodes != 1 {
		t.Errorf("Encodes = %d, want 1: the retry must not rebuild the encoding", plan.Stats.Encodes)
	}
	if got, want := plan.Stats.SolveCalls, int64(len(d.Attempts)); got != want {
		t.Errorf("SolveCalls = %d, want %d (one per recorded attempt)", got, want)
	}
	if plan.Stats.ClausesReused == 0 {
		t.Error("ClausesReused = 0: clauses learnt by the failed attempt were not carried to the retry")
	}
	if plan.Stats.Assumptions == 0 {
		t.Error("Assumptions = 0: attempts should be expressed as assumption sets")
	}
}

// TestInfeasibleNamesUnsatCore: a program that fits nowhere must fail with
// an *InfeasibleError naming the violated constraint families.
func TestInfeasibleNamesUnsatCore(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "40000000", "1000000"), lbScope, topo.Testbed())
	_, err := Solve(in, DefaultOptions())
	if err == nil {
		t.Fatal("want infeasibility")
	}
	var ie *InfeasibleError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InfeasibleError", err, err)
	}
	if len(ie.Groups) == 0 {
		t.Fatalf("unsat core has no named groups: %v", err)
	}
	foundLB := false
	for _, g := range ie.Groups {
		if !strings.Contains(g, ":") {
			t.Errorf("group %q is not a family:algorithm label", g)
		}
		if strings.HasSuffix(g, ":loadbalancer") {
			foundLB = true
		}
	}
	if !foundLB {
		t.Errorf("core %v does not name the loadbalancer", ie.Groups)
	}
	if !strings.Contains(err.Error(), "unsat core:") {
		t.Errorf("error text %q should render the core", err.Error())
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Error("InfeasibleError must still unwrap to ErrInfeasible")
	}
}

// TestDiagnosticsUnsatCoreSurface: the trail exposes the most recent
// attempt's core and renders it.
func TestDiagnosticsUnsatCoreSurface(t *testing.T) {
	d := &Diagnostics{}
	d.record("", "initial", attemptCfg{}, &InfeasibleError{Groups: []string{"exactly-one:acl"}}, 0,
		[]string{"exactly-one:acl"})
	d.record("", "relax-replication", attemptCfg{replicate: true}, nil, 0, nil)
	if got := d.UnsatCore(); len(got) != 1 || got[0] != "exactly-one:acl" {
		t.Errorf("UnsatCore = %v", got)
	}
	if d.Attempts[0].Outcome != "infeasible" {
		t.Errorf("outcome = %q", d.Attempts[0].Outcome)
	}
	if s := d.String(); !strings.Contains(s, "unsat core: exactly-one:acl") {
		t.Errorf("String() = %q should render the core", s)
	}
	if (&Diagnostics{}).UnsatCore() != nil {
		t.Error("empty trail must have no core")
	}
}

// TestMemoAnswersKnownClass: two Solves over the same input and memo must
// encode and solve once; the second call binds the memoised template —
// nothing built, no solver called — and reproduces the identical plan.
func TestMemoAnswersKnownClass(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	opts := DefaultOptions()
	opts.Cache = NewCache()
	p1, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("first solve: %v", err)
	}
	if p1.Stats.Encodes != 1 || p1.Stats.SolveCalls != 1 || p1.Stats.CacheHits != 0 || p1.Classes != 1 {
		t.Fatalf("first solve stats = %+v, Classes = %d: want one encode, one solve, no hit", p1.Stats, p1.Classes)
	}
	if opts.Cache.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", opts.Cache.Len())
	}
	p2, err := Solve(in, opts)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if p2.Stats.Encodes != 0 || p2.Stats.SolveCalls != 0 {
		t.Errorf("Encodes = %d, SolveCalls = %d after a memo hit, want 0 and 0", p2.Stats.Encodes, p2.Stats.SolveCalls)
	}
	if p2.Stats.CacheHits != 1 || p2.Classes != 0 || p2.Replayed != 1 || p2.Instances != 1 {
		t.Errorf("CacheHits/Classes/Replayed/Instances = %d/%d/%d/%d, want 1/0/1/1", p2.Stats.CacheHits, p2.Classes, p2.Replayed, p2.Instances)
	}
	if p2.Bindings()[0].Template != p1.Bindings()[0].Template {
		t.Error("second solve is not bound to the memoised template")
	}
	if p2.Bindings()[0].Class == "" || p2.Bindings()[0].Class != p1.Bindings()[0].Class {
		t.Error("the two solves disagree on the component's class")
	}
	f1, f2 := p1.Fingerprints(), p2.Fingerprints()
	if len(f1) == 0 {
		t.Fatal("no fingerprints")
	}
	planEqual(t, "memo hit vs solve", p2, p1)
	if len(f2) != len(f1) {
		t.Errorf("%d fingerprints after a memo hit, want %d", len(f2), len(f1))
	}
	if !reflect.DeepEqual(p2.Diagnostics, p1.Diagnostics) {
		t.Errorf("a memo hit reports the trail %+v, the solve reported %+v", p2.Diagnostics, p1.Diagnostics)
	}
	if opts.Cache.Len() != 1 {
		t.Errorf("memo holds %d entries after reuse, want 1", opts.Cache.Len())
	}

	// The oracle's switch bypasses it: it must really solve.
	o := DefaultOptions()
	o.Cache, o.NoSymmetryDedup = opts.Cache, true
	p, err := Solve(in, o)
	if err != nil {
		t.Fatalf("NoSymmetryDedup: %v", err)
	}
	if p.Stats.Encodes != 1 || p.Stats.SolveCalls != 1 || p.Stats.CacheHits != 0 {
		t.Errorf("NoSymmetryDedup: stats %+v, want a real solve and no memo hit", p.Stats)
	}
	planEqual(t, "NoSymmetryDedup vs memo hit", p, p2)
}

// TestMemoKeyedByShapingOptions: a class solved under one objective or
// preferred switch must not answer a solve under another —
// the template would be another — while the same options under other switch
// names (the preferred switch at the same index of a twin) may.
func TestMemoKeyedByShapingOptions(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	cache := NewCache()
	solve := func(label string, set func(*Options), wantHit bool) *Plan {
		t.Helper()
		o := DefaultOptions()
		o.Cache = cache
		set(o)
		p, err := Solve(in, o)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if hit := p.Stats.CacheHits == 1 && p.Stats.Encodes == 0; hit != wantHit {
			t.Errorf("%s: memo hit = %v (stats %+v), want %v", label, hit, p.Stats, wantHit)
		}
		return p
	}
	solve("default", func(*Options) {}, false)
	solve("default again", func(*Options) {}, true)
	solve("min-placements", func(o *Options) { o.Objective = ObjMinPlacements }, false)
	solve("min-switches", func(o *Options) { o.Objective = ObjMinSwitches }, false)
	tor3 := solve("prefer ToR3", func(o *Options) { o.Objective, o.PreferSwitch = ObjPreferSwitch, "ToR3" }, false)
	agg3 := solve("prefer Agg3", func(o *Options) { o.Objective, o.PreferSwitch = ObjPreferSwitch, "Agg3" }, false)
	solve("prefer ToR3 again", func(o *Options) { o.Objective, o.PreferSwitch = ObjPreferSwitch, "ToR3" }, true)
	solve("prefer a switch elsewhere", func(o *Options) { o.Objective, o.PreferSwitch = ObjPreferSwitch, "Core1" }, false)
	solve("a preferred switch without the objective", func(o *Options) { o.PreferSwitch = "ToR3" }, true)
	if tor3.Bindings()[0].Template == agg3.Bindings()[0].Template {
		t.Error("two preferred switches share one template")
	}

	// Twins: with the preferred switch in pod 2, pod 2 is a class of its own
	// and pods 1 and 3 one class, in the solve and in the memo.
	pods := buildInput(t, subst(lbSrc, "4000000", "100000"), podLBScope, podNet(3, 4))
	o := DefaultOptions()
	o.Cache = NewCache()
	o.Objective, o.PreferSwitch = ObjPreferSwitch, "ToR2_1"
	p, err := Solve(pods, o)
	if err != nil {
		t.Fatal(err)
	}
	bs := p.Bindings()
	if p.Classes != 2 || bs[0].Template != bs[2].Template || bs[0].Template == bs[1].Template {
		t.Errorf("Classes = %d; the pod holding the preferred switch must be its own class", p.Classes)
	}
	scratch := *o
	scratch.Cache, scratch.NoSymmetryDedup = nil, true
	want, err := Solve(pods, &scratch)
	if err != nil {
		t.Fatal(err)
	}
	planEqual(t, "preferred switch: dedup vs none", p, want)
}

// TestLadderTrailSurvivesMemoHit: a class that needed a fallback concession to
// be placed says so in every plan bound to it — solved, answered from the
// memo, or carried over from the previous plan.
func TestLadderTrailSurvivesMemoHit(t *testing.T) {
	in := buildInput(t, subst(lbSrc, "4000000", "1000000"), lbScope, topo.Testbed())
	tiny := attemptCfg{conflictBudget: 1}
	opts := DefaultOptions()
	opts.Cache = NewCache()
	first, err := solve(in, opts, tiny)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	if len(first.Diagnostics.Attempts) != 2 || !first.Diagnostics.FellBack() {
		t.Fatalf("trail = %v, want an escalation", first.Diagnostics)
	}
	again, err := solve(in, opts, tiny)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	carriedOpts := *opts
	carriedOpts.Prev = first
	carriedPlan, err := solve(&Input{IR: in.IR, Net: in.Net.Clone(), Scopes: in.Scopes}, &carriedOpts, tiny)
	if err != nil {
		t.Fatalf("carried solve: %v", err)
	}
	for label, p := range map[string]*Plan{"memo hit": again, "carried": carriedPlan} {
		if p.Stats.Encodes != 0 || p.Stats.SolveCalls != 0 {
			t.Errorf("%s: stats %+v, want nothing encoded or solved", label, p.Stats)
		}
		if !reflect.DeepEqual(p.Diagnostics, first.Diagnostics) {
			t.Errorf("%s: trail %v, want the solving compile's %v", label, p.Diagnostics, first.Diagnostics)
		}
	}
	if carriedPlan.Stats.CacheHits != 0 || carriedPlan.Bindings()[0].Template != first.Bindings()[0].Template {
		t.Errorf("an untouched component was looked up (%d hits) instead of carried", carriedPlan.Stats.CacheHits)
	}
}

// TestSolverCacheMissesOnChangedScope: a different scope resolution must not
// hit the cache entry of the original component.
func TestSolverCacheMissesOnChangedScope(t *testing.T) {
	cache := NewCache()
	opts := DefaultOptions()
	opts.Cache = cache
	in := buildInput(t, subst(lbSrc, "1024", "1024"), lbScope, topo.Testbed())
	if _, err := Solve(in, opts); err != nil {
		t.Fatalf("first solve: %v", err)
	}
	// Same IR (same root pointer), narrower deployment region: the content
	// key must differ, so the cached solver is not reused.
	spec, err := scope.Parse("loadbalancer: [ ToR3,Agg3 | MULTI-SW | (Agg3->ToR3) ]")
	if err != nil {
		t.Fatalf("scope: %v", err)
	}
	scopes, err := spec.Resolve(in.Net)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	in2 := &Input{IR: in.IR, Net: in.Net, Scopes: scopes}
	p2, err := Solve(in2, opts)
	if err != nil {
		t.Fatalf("second solve: %v", err)
	}
	if p2.Stats.Encodes != 1 || p2.Stats.SolveCalls != 1 {
		t.Errorf("Encodes = %d SolveCalls = %d: changed scope must encode fresh",
			p2.Stats.Encodes, p2.Stats.SolveCalls)
	}
	if cache.Len() != 2 {
		t.Errorf("cache holds %d entries, want 2 distinct components", cache.Len())
	}
}

// TestInfeasibleHintIsTheFailingSolves: the hint of an infeasible answer is the
// last resource conflict of the solve that failed, not of a probe the unsat
// core minimization ran after it. The same encoding solved alone, with no core
// minimized, names the conflict the answer must carry — on the ToR1/Agg1 scope
// the conn_table a Trident-4 cannot hold, where a probe ends on a Tofino's
// stage overflow; on the whole testbed the entries left over along Agg1->ToR1,
// where a probe ends on another count.
func TestInfeasibleHintIsTheFailingSolves(t *testing.T) {
	src := subst(lbSrc, "50000000", "1000000")
	for _, tc := range []struct{ scope, want string }{
		{`loadbalancer: [ ToR1,Agg1 | MULTI-SW | (Agg1->ToR1) ]`, "Trident-4: memory pool overflow: need 50000001 words, have 3000000"},
		{`loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]`, "extern conn_table: 47000001 entries do not fit along path [Agg1 ToR1]"},
	} {
		in := buildInput(t, src, tc.scope, topo.Testbed())
		e, err := newEncoder(in, scopeUnion(in), nameWalk(t, in, scopeUnion(in)), &phvIndex{prog: in.IR})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.encode(context.Background()); err != nil {
			t.Fatal(err)
		}
		if st, err := e.solver.Solve(e.assumptionsFor(attemptCfg{})...); err != nil || st != smt.StatusUnsat {
			t.Fatalf("%s: solve: %v %v, want unsat", tc.scope, st, err)
		}
		failing := e.lastTheoryHint()
		if !strings.Contains(failing, tc.want) {
			t.Fatalf("%s: the failing solve's last conflict is %q, want it to name %q", tc.scope, failing, tc.want)
		}
		r := solveComponent(context.Background(), in, scopeUnion(in), nameWalk(t, in, scopeUnion(in)), &phvIndex{prog: in.IR}, attemptCfg{conflictBudget: conflictBudget}, "")
		var ie *InfeasibleError
		if !errors.As(r.err, &ie) || len(r.trail.Attempts) != 1 {
			t.Fatalf("%s: err = %v after %s, want one attempt's *InfeasibleError", tc.scope, r.err, r.trail.Summary())
		}
		if ie.Hint != failing {
			t.Errorf("%s: hint %q, want the failing solve's %q", tc.scope, ie.Hint, failing)
		}
	}
}

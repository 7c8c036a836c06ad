package lyra

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"lyra/internal/core"
	"lyra/internal/encode"
)

// compositionScopes deploys the five-algorithm service chain with one
// algorithm per switch: five disjoint scopes, so the placement problem
// splits into five independent SMT instances.
const compositionScopes = `
classifier: [ ToR1 | PER-SW | - ]
firewall:   [ ToR2 | PER-SW | - ]
gateway:    [ ToR3 | PER-SW | - ]
chain_lb:   [ ToR4 | PER-SW | - ]
scheduler:  [ Agg1 | PER-SW | - ]
`

// TestParallelMatchesSequential is the determinism contract of the
// concurrent pipeline: any parallelism level must produce byte-identical
// artifacts, identical verification reports, and identical fingerprints.
// CI runs this under -race, which also exercises the worker pools for data
// races.
func TestParallelMatchesSequential(t *testing.T) {
	src := loadProgram(t, "composition")
	compile := func(workers int) *Result {
		res, err := New(WithParallelism(workers)).Compile(
			context.Background(), src, compositionScopes, Testbed())
		if err != nil {
			t.Fatalf("compile(parallelism=%d): %v", workers, err)
		}
		return res
	}
	seq := compile(1)
	parl := compile(8)

	if seq.SolveInstances != 5 || parl.SolveInstances != 5 {
		t.Fatalf("SolveInstances = %d/%d, want 5 disjoint components both ways",
			seq.SolveInstances, parl.SolveInstances)
	}
	if !reflect.DeepEqual(seq.Switches(), parl.Switches()) {
		t.Fatalf("switch sets differ: %v vs %v", seq.Switches(), parl.Switches())
	}
	for _, sw := range seq.Switches() {
		a, b := seq.Artifact(sw), parl.Artifact(sw)
		if a.Code != b.Code {
			t.Errorf("%s: generated code differs between parallel and sequential", sw)
		}
		if a.ControlPlane != b.ControlPlane {
			t.Errorf("%s: control-plane stubs differ", sw)
		}
	}
	if !reflect.DeepEqual(seq.Fingerprints, parl.Fingerprints) {
		t.Errorf("fingerprints differ:\n seq %v\n par %v", seq.Fingerprints, parl.Fingerprints)
	}
	if len(seq.Reports) != len(parl.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(seq.Reports), len(parl.Reports))
	}
	for i := range seq.Reports {
		a, b := seq.Reports[i], parl.Reports[i]
		if a.Switch != b.Switch || a.OK != b.OK || !reflect.DeepEqual(a.Problems, b.Problems) {
			t.Errorf("report %d differs: %+v vs %+v", i, a, b)
		}
	}
	if seq.SolverStats != parl.SolverStats {
		t.Errorf("solver stats differ: %+v vs %+v", seq.SolverStats, parl.SolverStats)
	}
}

// TestTestbedParallelByteIdentical runs the same contract on the §7
// testbed's MULTI-SW load balancer (a single fused component), covering the
// translation/verification fan-out rather than the component solver.
func TestTestbedParallelByteIdentical(t *testing.T) {
	compile := func(workers int) *Result {
		res, err := New(WithParallelism(workers)).Compile(
			context.Background(), quickLB, quickScope, Testbed())
		if err != nil {
			t.Fatalf("compile(parallelism=%d): %v", workers, err)
		}
		return res
	}
	seq := compile(1)
	parl := compile(8)
	if seq.SolveInstances != 1 || parl.SolveInstances != 1 {
		t.Fatalf("SolveInstances = %d/%d, want 1", seq.SolveInstances, parl.SolveInstances)
	}
	for _, sw := range seq.Switches() {
		if seq.Artifact(sw).Code != parl.Artifact(sw).Code {
			t.Errorf("%s: generated code differs", sw)
		}
	}
	if !reflect.DeepEqual(seq.Reports, parl.Reports) {
		t.Errorf("reports differ")
	}
}

func TestResultPhases(t *testing.T) {
	res, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	want := Phases()
	if len(res.Phases) != len(want) {
		t.Fatalf("Phases = %v, want all of %v", res.Phases, want)
	}
	var sum int64
	for i, pt := range res.Phases {
		if pt.Phase != want[i] {
			t.Errorf("phase[%d] = %s, want %s", i, pt.Phase, want[i])
		}
		if pt.Duration < 0 {
			t.Errorf("phase %s has negative duration %v", pt.Phase, pt.Duration)
		}
		sum += int64(pt.Duration)
	}
	total := int64(res.CompileTime)
	if sum > total {
		t.Errorf("phase sum %d exceeds CompileTime %d", sum, total)
	}
	// The six phases cover everything but loop glue; demand they account
	// for the overwhelming share of the pipeline.
	if sum*10 < total*8 {
		t.Errorf("phase sum %d is under 80%% of CompileTime %d", sum, total)
	}
	if got := res.PhaseDuration(PhaseSolve); got != res.SolveTime {
		t.Errorf("PhaseDuration(solve) = %v, want SolveTime %v", got, res.SolveTime)
	}
	if res.SolverStats.Propagations == 0 {
		t.Errorf("SolverStats not populated: %+v", res.SolverStats)
	}
}

func TestObserverSeesPhasesInOrder(t *testing.T) {
	var seen []PhaseTiming
	obs := ObserverFunc(func(pt PhaseTiming) { seen = append(seen, pt) })
	res, err := New(WithObserver(obs)).Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if !reflect.DeepEqual(seen, res.Phases) {
		t.Errorf("observer saw %v, Result.Phases = %v", seen, res.Phases)
	}
}

// TestCompilerMatchesRequest pins the one configuration: every option
// arrives in the pipeline request under its own field, a compile adds only
// the program, the scope specification and the network, and it adds them to
// a copy — the Compiler another goroutine may be compiling with is not
// written to.
func TestCompilerMatchesRequest(t *testing.T) {
	var got []core.Request
	orig := corePipeline
	corePipeline = func(_ context.Context, req core.Request) (*core.Result, error) {
		got = append(got, req)
		return nil, errors.New("stop here")
	}
	defer func() { corePipeline = orig }()

	obs := ObserverFunc(func(PhaseTiming) {})
	c := New(
		WithDialect(P416), WithObjective(ObjectiveMinSwitches), WithPreferSwitch("ToR3"),
		WithSolveBudget(time.Minute), WithParallelism(3), WithObserver(obs), WithSkipVerify(),
		WithSourceName("lb.lyra"),
		WithOptimize(OptimizeOptions{Seed: 9}),
	)
	net := Testbed()
	c.Compile(context.Background(), "first", "scope one", net)
	c.Compile(context.Background(), "second", "scope two", net)
	if len(got) != 2 {
		t.Fatalf("pipeline saw %d requests, want 2", len(got))
	}
	for i, want := range [][2]string{{"first", "scope one"}, {"second", "scope two"}} {
		req := got[i]
		if req.Source != want[0] || req.ScopeSpec != want[1] || req.Network == nil {
			t.Errorf("request %d inputs = %q, %q, %v", i, req.Source, req.ScopeSpec, req.Network)
		}
		if req.Dialect != P416 || req.Objective != ObjectivePreferSwitch || req.PreferSwitch != "ToR3" ||
			req.SolveBudget != time.Minute || req.Parallelism != 3 || req.Observer == nil || !req.SkipVerify ||
			req.SourceName != "lb.lyra" ||
			req.Optimize == nil || req.Optimize.Seed != 9 {
			t.Errorf("request %d does not carry the options: %+v", i, req)
		}
	}
	if c.cfg.Source != "" || c.cfg.ScopeSpec != "" || c.cfg.Network != nil {
		t.Errorf("a compile wrote its inputs into the shared configuration: %+v", c.cfg)
	}
}

func TestCompilerSkipVerify(t *testing.T) {
	res, err := New(WithSkipVerify()).Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if res.Reports != nil {
		t.Errorf("Reports = %v, want nil with WithSkipVerify", res.Reports)
	}
	if got := res.PhaseDuration(PhaseVerify); got != 0 {
		t.Errorf("verify phase recorded %v despite WithSkipVerify", got)
	}
}

func TestCompilerRecompile(t *testing.T) {
	c := New(WithParallelism(4))
	base, err := c.Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, delta, err := c.Recompile(context.Background(), base,
		Scenario{Name: "agg3-down", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	if delta == nil {
		t.Fatal("nil delta")
	}
	if res.Network().Switch("Agg3") != nil {
		t.Errorf("degraded network still has Agg3")
	}
	if res.PhaseDuration(PhaseSolve) != res.SolveTime {
		t.Errorf("recompile phases not populated: %v", res.Phases)
	}
	if res.PhaseDuration(PhaseParse) != 0 {
		t.Errorf("recompile reports a parse phase (%v) despite reusing the front-end", res.Phases)
	}
}

func TestDiagnosticsString(t *testing.T) {
	var empty *Diagnostics
	if got := empty.String(); got != "no solve attempts" {
		t.Errorf("nil stringer = %q", got)
	}
	d := &Diagnostics{
		Attempts: []encode.Attempt{
			{Step: "initial", Outcome: "conflict-budget"},
			{Step: "escalate-budget", Outcome: "sat"},
		},
		Degraded: []string{"conflict budget escalated 1 -> 8"},
	}
	want := "initial:conflict-budget -> escalate-budget:sat\n  concession: conflict budget escalated 1 -> 8"
	if got := d.String(); got != want {
		t.Errorf("stringer:\n got %q\nwant %q", got, want)
	}
	d2 := &Diagnostics{Attempts: []encode.Attempt{{Component: "lb_a", Step: "initial", Outcome: "sat"}}}
	if got := d2.String(); got != "lb_a/initial:sat" {
		t.Errorf("component stringer = %q", got)
	}
}

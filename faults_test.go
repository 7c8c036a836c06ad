package lyra

import (
	"context"
	"errors"
	"testing"
	"time"

	"lyra/internal/core"
	"lyra/internal/topo"
)

// scopeRegion is the switch set quickScope deploys over; failures outside
// it must not perturb the placement at all.
var scopeRegion = map[string]bool{"ToR3": true, "ToR4": true, "Agg3": true, "Agg4": true}

func compileQuickLB(t *testing.T) *Result {
	t.Helper()
	res, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return res
}

// checkForwarding runs the reference pipeline and the deployed network over
// every surviving flow path and demands identical packets.
func checkForwarding(t *testing.T, res *Result, label string) {
	t.Helper()
	sim, err := res.Simulate(NewTables())
	if err != nil {
		t.Fatalf("%s: simulate: %v", label, err)
	}
	pkt := NewPacket()
	pkt.Valid["ipv4"] = true
	pkt.Fields["ipv4.srcAddr"] = 0x0A000001
	pkt.Fields["ipv4.dstAddr"] = 0x0B000002
	pkt.Fields["ipv4.protocol"] = 6
	ctx := &SimContext{}
	ref, err := sim.RunReference(ctx, pkt)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	paths := res.FlowPaths("loadbalancer")
	if len(paths) == 0 {
		t.Fatalf("%s: no surviving flow paths", label)
	}
	for _, path := range paths {
		// Compiled before interpreter: compiled inserts are copy-on-write
		// and lane-local, interpreter inserts land in the shared shard tables.
		eng, err := sim.RunPathCompiled(path, ctx, pkt)
		if err != nil {
			t.Fatalf("%s: path %v: compiled: %v", label, path, err)
		}
		got, err := sim.RunPath(path, ctx, pkt)
		if err != nil {
			t.Fatalf("%s: path %v: %v", label, path, err)
		}
		if got.Summary() != ref.Summary() {
			t.Errorf("%s: path %v diverges:\n  ref:  %s\n  dist: %s",
				label, path, ref.Summary(), got.Summary())
		}
		if eng.Summary() != got.Summary() {
			t.Errorf("%s: path %v: engine diverges from interpreter on the recompiled plan:\n  interp: %s\n  engine: %s",
				label, path, got.Summary(), eng.Summary())
		}
	}
}

// TestSingleFailureSweep is the tentpole validation: for every switch in
// the testbed, fail it alone, recompile, and verify the surviving network
// still forwards correctly and the delta touches only affected devices.
func TestSingleFailureSweep(t *testing.T) {
	base := compileQuickLB(t)
	for _, sc := range SingleSwitchFailures(Testbed()) {
		failed := sc.Events[0].Switch
		res, delta, err := New().Recompile(context.Background(), base, sc)
		if err != nil {
			t.Errorf("%s: recompile failed: %v", sc.Name, err)
			continue
		}
		if _, ok := res.Artifacts[failed]; ok {
			t.Errorf("%s: dead switch still has an artifact", sc.Name)
		}
		for _, sw := range delta.Reprogram {
			if sw == failed {
				t.Errorf("%s: delta reprograms the dead switch", sc.Name)
			}
			if !scopeRegion[sw] {
				t.Errorf("%s: delta reprograms out-of-scope switch %s", sc.Name, sw)
			}
		}
		if !scopeRegion[failed] {
			// A failure outside the deployment region must not move anything:
			// the encoding is unchanged, the solver is deterministic, and the
			// fingerprints match, so every artifact is reused.
			if len(delta.Reprogram) != 0 || len(delta.Removed) != 0 {
				t.Errorf("%s: irrelevant failure produced delta %v", sc.Name, delta)
			}
		}
		if res.Network().Switch(failed) != nil {
			t.Errorf("%s: degraded network still contains %s", sc.Name, failed)
		}
		checkForwarding(t, res, sc.Name)
	}
	// The original result and network are untouched by all the recompiles.
	if base.Network().Switch("Agg3") == nil || len(base.Network().Switches) != 10 {
		t.Error("recompilation mutated the original network")
	}
}

// TestGoldenAggFailure pins the expected shape of the canonical scenario:
// Agg3 dies, traffic degrades onto the two Agg4 paths.
func TestGoldenAggFailure(t *testing.T) {
	base := compileQuickLB(t)
	res, delta, err := New().Recompile(context.Background(), base, Scenario{Name: "agg3-down", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	paths := res.FlowPaths("loadbalancer")
	if len(paths) != 2 {
		t.Fatalf("surviving paths = %v, want the 2 via Agg4", paths)
	}
	for _, p := range paths {
		if p[0] != "Agg4" {
			t.Errorf("path %v should start at Agg4", p)
		}
	}
	// If Agg3 hosted anything before, it must now be listed as removed.
	if _, hosted := base.Fingerprints["Agg3"]; hosted {
		if len(delta.Removed) != 1 || delta.Removed[0] != "Agg3" {
			t.Errorf("removed = %v, want [Agg3]", delta.Removed)
		}
	}
	// Delta partitions the surviving placement: every programmed switch is
	// either reprogrammed or explicitly unchanged.
	seen := map[string]bool{}
	for _, sw := range delta.Reprogram {
		seen[sw] = true
	}
	for _, sw := range delta.Unchanged {
		if seen[sw] {
			t.Errorf("switch %s both reprogrammed and unchanged", sw)
		}
		seen[sw] = true
	}
	for sw := range res.Fingerprints {
		if !seen[sw] {
			t.Errorf("switch %s missing from delta", sw)
		}
	}
	// Unchanged switches keep the identical artifact object.
	for _, sw := range delta.Unchanged {
		if res.Artifacts[sw] != base.Artifacts[sw] {
			t.Errorf("unchanged switch %s got a fresh artifact", sw)
		}
	}
	checkForwarding(t, res, "agg3-down")
}

func TestRecompileChained(t *testing.T) {
	base := compileQuickLB(t)
	res1, _, err := New().Recompile(context.Background(), base, Scenario{Name: "agg3", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatalf("first recompile: %v", err)
	}
	// A second, unrelated failure on the already-degraded network.
	res2, delta2, err := New().Recompile(context.Background(), res1, Scenario{Name: "core1", Events: []FaultEvent{SwitchDown("Core1")}})
	if err != nil {
		t.Fatalf("chained recompile: %v", err)
	}
	if len(delta2.Reprogram) != 0 {
		t.Errorf("core1 failure after agg3 reprogrammed %v", delta2.Reprogram)
	}
	if len(res2.Network().Switches) != 8 {
		t.Errorf("chained network has %d switches, want 8", len(res2.Network().Switches))
	}
	checkForwarding(t, res2, "chained")
}

func TestRecompileLinkDown(t *testing.T) {
	base := compileQuickLB(t)
	res, _, err := New().Recompile(context.Background(), base, Scenario{Name: "cut", Events: []FaultEvent{LinkDown("Agg3", "ToR3")}})
	if err != nil {
		t.Fatalf("recompile: %v", err)
	}
	for _, p := range res.FlowPaths("loadbalancer") {
		for i := 0; i+1 < len(p); i++ {
			if (p[i] == "Agg3" && p[i+1] == "ToR3") || (p[i] == "ToR3" && p[i+1] == "Agg3") {
				t.Errorf("path %v crosses the dead link", p)
			}
		}
	}
	checkForwarding(t, res, "link-down")
}

func TestRecompileInfeasibleScenario(t *testing.T) {
	base := compileQuickLB(t)
	// Killing both Aggs leaves no flow path at all: recompilation must fail
	// with a diagnosable error, not a bogus plan.
	_, _, err := New().Recompile(context.Background(), base, Scenario{Name: "both-aggs", Events: []FaultEvent{
		SwitchDown("Agg3"), SwitchDown("Agg4"),
	}})
	if err == nil {
		t.Fatal("want error when the scope loses every path")
	}
}

func TestRecompileBadScenario(t *testing.T) {
	base := compileQuickLB(t)
	_, _, err := New().Recompile(context.Background(), base, Scenario{Name: "ghost", Events: []FaultEvent{SwitchDown("ghost")}})
	if err == nil {
		t.Fatal("want error applying a scenario naming an unknown switch")
	}
	var r *Result
	if _, _, err := New().Recompile(context.Background(), r, Scenario{}); err == nil {
		t.Fatal("nil result must refuse to recompile")
	}
}

func TestCompileContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := New().Compile(ctx, quickLB, quickScope, Testbed())
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want typed ErrTimeout under ErrBudget", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancelled compile took %v", elapsed)
	}
}

// TestSolveBudgetExpiredTyped compiles under a context whose deadline has
// already passed: the context is the solve's one time limit.
func TestSolveBudgetExpiredTyped(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := New().Compile(ctx, quickLB, quickScope, Testbed())
	if !errors.Is(err, ErrTimeout) || !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want typed ErrTimeout under ErrBudget", err)
	}
}

func TestPanicBecomesInternalError(t *testing.T) {
	orig := corePipeline
	corePipeline = func(ctx context.Context, req core.Request) (*core.Result, error) {
		panic("synthetic pipeline bug")
	}
	defer func() { corePipeline = orig }()
	_, err := New().Compile(context.Background(), quickLB, quickScope, Testbed())
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
	if ie.Value != "synthetic pipeline bug" {
		t.Errorf("value = %v", ie.Value)
	}
	if len(ie.Stack) == 0 {
		t.Error("no stack captured")
	}
}

func TestRecompilePanicRecovered(t *testing.T) {
	base := compileQuickLB(t)
	orig := recompilePipeline
	recompilePipeline = func(ctx context.Context, prev *core.Result, req core.Request, net *topo.Network) (*core.Result, *core.Delta, error) {
		panic("synthetic recompile bug")
	}
	defer func() { recompilePipeline = orig }()
	_, _, err := New().Recompile(context.Background(), base, Scenario{Name: "x", Events: []FaultEvent{SwitchDown("Core1")}})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *InternalError", err, err)
	}
}

func TestDegradeRecompile(t *testing.T) {
	base := compileQuickLB(t)
	res, delta, err := New().Recompile(context.Background(), base, Scenario{Name: "tor3-degraded", Events: []FaultEvent{
		Degrade("ToR3", 0.5, 0.5, 1),
	}})
	if err != nil {
		t.Fatalf("recompile on degraded ToR3: %v", err)
	}
	if got := res.Network().Switch("ToR3").ASIC.Name; got == base.Network().Switch("ToR3").ASIC.Name {
		t.Errorf("ToR3 model unchanged: %s", got)
	}
	// ToR3's fingerprint covers its chip model, so it cannot be silently
	// reused even when its placement is identical.
	for _, sw := range delta.Unchanged {
		if sw == "ToR3" {
			t.Error("degraded ToR3 reported unchanged")
		}
	}
	checkForwarding(t, res, "degrade")
}

func TestRecompileDiagnosticsPopulated(t *testing.T) {
	base := compileQuickLB(t)
	if base.Diagnostics == nil || len(base.Diagnostics.Attempts) == 0 {
		t.Fatal("compile recorded no solve attempts")
	}
	if base.Diagnostics.FellBack() {
		t.Errorf("healthy compile should not fall back: %v", base.Diagnostics.Degraded)
	}
	res, _, err := New().Recompile(context.Background(), base, Scenario{Name: "agg3", Events: []FaultEvent{SwitchDown("Agg3")}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Diagnostics == nil || len(res.Diagnostics.Attempts) == 0 {
		t.Error("recompile recorded no solve attempts")
	}
}

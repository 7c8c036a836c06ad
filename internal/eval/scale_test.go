package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRunScaleSmall drives a miniature sweep end to end: dedup must be
// active (every pod past the first replays), lazy enumeration must bound
// the working set, and the churn loop must complete every event.
func TestRunScaleSmall(t *testing.T) {
	params := ScaleParams{
		Ks:          []int{4},
		ChurnEvents: 4,
		Seed:        1,
		// Small externs keep the solve trivial; the structural assertions
		// are what this test is about.
		ConnSize: 4096,
		VipSize:  1024,
	}
	points, err := RunScale(params)
	if err != nil {
		t.Fatalf("RunScale: %v", err)
	}
	if len(points) != 1 {
		t.Fatalf("got %d points, want 1", len(points))
	}
	pt := points[0]
	if pt.Components != 4 {
		t.Errorf("Components = %d, want 4 (one per pod)", pt.Components)
	}
	if pt.Classes != 1 || pt.Replayed != 3 {
		t.Errorf("Classes/Replayed = %d/%d, want 1/3", pt.Classes, pt.Replayed)
	}
	if pt.PeakPathsHeld >= pt.PathsEnumerated {
		t.Errorf("PeakPathsHeld (%d) not below PathsEnumerated (%d)",
			pt.PeakPathsHeld, pt.PathsEnumerated)
	}
	if pt.RecompileMax <= 0 {
		t.Error("churn loop recorded no recompile latency")
	}
	if len(pt.Reprogrammed) != pt.ChurnEvents {
		t.Errorf("%d per-event reprogram counts for %d churn events", len(pt.Reprogrammed), pt.ChurnEvents)
	}
	if pt.MaxSwitchDownReprogrammed == 0 || pt.MaxSwitchDownReprogrammed > pt.K {
		t.Errorf("a switch-down reprogrammed %d switches, want between 1 and the %d of its pod",
			pt.MaxSwitchDownReprogrammed, pt.K)
	}
	if violations := CheckScale(points, 0); len(violations) > 0 {
		t.Errorf("CheckScale violations: %v", violations)
	}
}

// TestAppendScaleRunPreservesSiblings: the scale key must merge into
// BENCH_compile.json without clobbering what other experiments wrote.
func TestAppendScaleRunPreservesSiblings(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_compile.json")
	if err := os.WriteFile(path, []byte(`{"phases": [{"k": 4}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	run := ScaleRun{Params: ScaleParams{Ks: []int{8}}, Points: []ScalePoint{{K: 8}}}
	run.Stamp()
	if err := AppendScaleRun(path, run); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := AppendScaleRun(path, run); err != nil {
		t.Fatalf("second append: %v", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("artifact not JSON: %v", err)
	}
	if _, ok := doc["phases"]; !ok {
		t.Error("phases key clobbered")
	}
	var runs []ScaleRun
	if err := json.Unmarshal(doc["scale"], &runs); err != nil {
		t.Fatalf("scale key: %v", err)
	}
	if len(runs) != 2 {
		t.Errorf("got %d scale runs, want 2", len(runs))
	}
	if runs[0].GitSHA == "" || runs[0].Timestamp == "" {
		t.Error("provenance stamp missing")
	}
}

// TestCheckScaleFlagsRegressions: the contract checker must catch each
// failure mode it exists for.
func TestCheckScaleFlagsRegressions(t *testing.T) {
	bad := []ScalePoint{
		{K: 16, Pods: 16, Components: 16, Replayed: 0, PathsEnumerated: 100, PeakPathsHeld: 100, Speedup: 1.0},
	}
	violations := CheckScale(bad, 2.0)
	if len(violations) != 3 {
		t.Errorf("got %d violations, want 3 (no replay, unbounded peak, slow): %v",
			len(violations), violations)
	}
	good := []ScalePoint{
		{K: 16, Pods: 16, Components: 16, Replayed: 15, PathsEnumerated: 1024, PeakPathsHeld: 64, Speedup: 3.5},
	}
	if v := CheckScale(good, 2.0); len(v) != 0 {
		t.Errorf("clean point flagged: %v", v)
	}
	// One dead ToR reprogramming more than its own pod is a violation.
	global := []ScalePoint{
		{K: 16, Pods: 16, Components: 16, Replayed: 15, PathsEnumerated: 1024, PeakPathsHeld: 64, Speedup: 3.5,
			MaxSwitchDownReprogrammed: 255},
	}
	if v := CheckScale(global, 2.0); len(v) != 1 {
		t.Errorf("fabric-wide reprogramming: got %v, want one violation", v)
	}
	// So is one dead ToR that gets a second component encoded.
	resolved := []ScalePoint{
		{K: 16, Pods: 16, Components: 16, Replayed: 15, PathsEnumerated: 1024, PeakPathsHeld: 64, Speedup: 3.5,
			MaxSwitchDownReprogrammed: 15, MaxSwitchDownEncodes: 2},
	}
	if v := CheckScale(resolved, 2.0); len(v) != 1 {
		t.Errorf("two encodes for one switch-down: got %v, want one violation", v)
	}
	// Small k is exempt from the speedup floor — single-digit-millisecond
	// compiles are timer noise — but not from the structural checks.
	small := []ScalePoint{
		{K: 8, Pods: 8, Components: 8, Replayed: 7, PathsEnumerated: 128, PeakPathsHeld: 16, Speedup: 1.1},
	}
	if v := CheckScale(small, 2.0); len(v) != 0 {
		t.Errorf("k=8 point flagged on the speedup floor: %v", v)
	}
}

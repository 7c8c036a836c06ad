package faults

import (
	"reflect"
	"strings"
	"testing"

	"lyra/internal/scope"
	"lyra/internal/topo"
)

const quickScope = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]"

func TestSingleSwitchFailuresCoverAll(t *testing.T) {
	net := topo.Testbed()
	scs := SingleSwitchFailures(net)
	if len(scs) != len(net.Switches) {
		t.Fatalf("scenarios = %d, want %d", len(scs), len(net.Switches))
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if len(sc.Events) != 1 || sc.Events[0].Kind != KindSwitchDown {
			t.Fatalf("scenario %s: events = %v", sc.Name, sc.Events)
		}
		seen[sc.Events[0].Switch] = true
	}
	for _, name := range net.Names() {
		if !seen[name] {
			t.Errorf("switch %s has no failure scenario", name)
		}
	}
}

func TestSingleLinkFailuresDedup(t *testing.T) {
	net := topo.Testbed()
	scs := SingleLinkFailures(net)
	// The testbed is two pods of (2 ToR x 2 Agg) plus 2 cores linked to all
	// 4 Aggs: 4+4 pod links + 8 core links = 16 distinct links.
	if len(scs) != 16 {
		t.Fatalf("scenarios = %d, want 16: %v", len(scs), scs)
	}
	seen := map[string]bool{}
	for _, sc := range scs {
		if seen[sc.Name] {
			t.Errorf("duplicate scenario %s", sc.Name)
		}
		seen[sc.Name] = true
	}
}

func TestKRandomFaultsDeterministic(t *testing.T) {
	net := topo.Testbed()
	a := KRandomFaults(net, 3, 7)
	b := KRandomFaults(net, 3, 7)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed differs:\n%v\n%v", a, b)
	}
	c := KRandomFaults(net, 3, 8)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical scenarios (suspicious)")
	}
	if len(a.Events) != 3 {
		t.Errorf("events = %d, want 3", len(a.Events))
	}
}

func TestKRandomFaultsTerminatesWhenOversubscribed(t *testing.T) {
	net := topo.New()
	net.AddSwitch("a", "ToR", nil)
	net.AddSwitch("b", "ToR", nil)
	net.AddLink("a", "b")
	// Asking for far more faults than the network can yield must return,
	// not spin.
	sc := KRandomFaults(net, 100, 1)
	if len(sc.Events) > 3 {
		t.Fatalf("events = %d from a 2-switch net", len(sc.Events))
	}
}

func TestApplySemantics(t *testing.T) {
	net := topo.Testbed()
	sc := Scenario{Name: "mixed", Events: []Event{
		SwitchDown("Core1"),
		LinkDown("ToR3", "Agg3"),
		Degrade("ToR4", 0.5, 1, 1),
	}}
	orig := net.Switch("ToR4").ASIC.Stages
	if err := sc.Apply(net); err != nil {
		t.Fatal(err)
	}
	if net.Switch("Core1") != nil {
		t.Error("Core1 survived switch-down")
	}
	if net.HasLink("ToR3", "Agg3") {
		t.Error("link survived link-down")
	}
	if got := net.Switch("ToR4").ASIC.Stages; got != orig/2 {
		t.Errorf("ToR4 stages = %d, want %d", got, orig/2)
	}
}

func TestApplyReportsFailingEvent(t *testing.T) {
	net := topo.Testbed()
	sc := Scenario{Name: "bad", Events: []Event{SwitchDown("ghost")}}
	err := sc.Apply(net)
	if err == nil {
		t.Fatal("want error for unknown switch")
	}
	if !strings.Contains(err.Error(), "ghost") || !strings.Contains(err.Error(), "bad") {
		t.Errorf("error %q should name the scenario and the event", err)
	}
}

func TestScopePathsRecomputedAfterApply(t *testing.T) {
	spec, err := scope.Parse(quickScope)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.Testbed()
	before, err := spec.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	if paths, err := before["loadbalancer"].PathList(); len(paths) != 4 || err != nil {
		t.Fatalf("paths before failure = %d (%v), want 4", len(paths), err)
	}

	if err := (Scenario{Name: "agg3", Events: []Event{SwitchDown("Agg3")}}).Apply(net); err != nil {
		t.Fatal(err)
	}
	// Strict resolution fails: the spec names the dead Agg3 explicitly.
	if _, err := spec.Resolve(net); err == nil {
		t.Error("strict resolve should fail after Agg3 death")
	}
	after, err := spec.ResolveWith(net, scope.ResolveOpts{AllowMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := after["loadbalancer"].PathList()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("paths after failure = %v, want the 2 Agg4 paths", paths)
	}
	for _, p := range paths {
		for _, sw := range p {
			if sw == "Agg3" {
				t.Errorf("path %v crosses dead switch", p)
			}
		}
	}
}

// TestApplyAtomicOnFailure: a scenario whose later event fails must leave
// the network byte-for-byte untouched — the earlier events are applied to a
// clone and only swapped in on full success.
func TestApplyAtomicOnFailure(t *testing.T) {
	net := topo.Testbed()
	wantNames := net.Names()
	sc := Scenario{Name: "partial", Events: []Event{
		SwitchDown("Agg1"),         // would succeed
		LinkDown("Agg2", "Core1"),  // would succeed
		SwitchDown("NoSuchSwitch"), // fails
	}}
	err := sc.Apply(net)
	if err == nil {
		t.Fatal("scenario with unknown switch should fail")
	}
	if !strings.Contains(err.Error(), "NoSuchSwitch") {
		t.Errorf("error should name the failing event, got: %v", err)
	}
	if got := net.Names(); !reflect.DeepEqual(got, wantNames) {
		t.Errorf("switch set mutated by failed scenario:\n got %v\nwant %v", got, wantNames)
	}
	if !net.HasLink("Agg2", "Core1") {
		t.Error("link Agg2—Core1 stranded removed by failed scenario")
	}
	if net.Switch("Agg1") == nil {
		t.Error("switch Agg1 stranded removed by failed scenario")
	}

	// The same events minus the bad one still apply (and commit) cleanly.
	ok := Scenario{Name: "full", Events: sc.Events[:2]}
	if err := ok.Apply(net); err != nil {
		t.Fatalf("valid prefix scenario: %v", err)
	}
	if net.Switch("Agg1") != nil || net.HasLink("Agg2", "Core1") {
		t.Error("successful scenario did not commit")
	}
}

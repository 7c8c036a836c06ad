package lyra

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// A recompile takes over what the fault left alone — scopes, placement
// components, class templates, switch hashes, artifacts, reports — instead of
// deriving it again. Everything below holds it to one standard: the result is
// what compiling the degraded network from nothing gives.

// mixedPods is a 3-pod k=4 fabric whose second pod aggregates on Trident-4:
// two symmetry classes from the start.
func mixedPods() *Network {
	return topo.MultiPodFatTree(3, 4, func(layer string, idx int) *asic.Model {
		if layer == "Agg" && idx >= 4 && idx < 8 {
			return asic.Trident4
		}
		return asic.Tofino32Q
	})
}

// trail strips a diagnostics trail of its wall-clock durations, the one thing
// in it two equal solves differ by.
func trail(d *Diagnostics) Diagnostics {
	if d == nil {
		return Diagnostics{}
	}
	out := Diagnostics{Degraded: d.Degraded}
	for _, a := range d.Attempts {
		a.Duration = 0
		out.Attempts = append(out.Attempts, a)
	}
	return out
}

// sameAsCompile is sameAsScratch plus everything underneath the artifacts:
// the whole plan slice, the decomposition binding by binding and in order
// (same switches, same class, and the same grouping of components into
// templates), both switch hashes, the reports and the solver's trail.
func sameAsCompile(t *testing.T, label string, inc, scratch *Result) {
	t.Helper()
	sameAsScratch(t, label, inc, scratch)
	sameSlice(t, label, sliceOf(inc, everySwitch, sameName), sliceOf(scratch, everySwitch, sameName))
	a, b := inc.plan, scratch.plan
	for _, f := range []struct {
		name      string
		got, want any
	}{
		{"BridgeLayout", a.BridgeLayout(), b.BridgeLayout()},
		{"Fingerprints", inc.Fingerprints, scratch.Fingerprints},
		{"Reports", inc.Reports, scratch.Reports},
		{"Diagnostics", trail(inc.Diagnostics), trail(scratch.Diagnostics)},
		{"Instances", a.Instances, b.Instances},
		{"PathsEnumerated", a.PathsEnumerated, b.PathsEnumerated},
		{"PeakPathsHeld", a.PeakPathsHeld, b.PeakPathsHeld},
	} {
		if !reflect.DeepEqual(f.got, f.want) {
			t.Errorf("%s: %s differs from a from-scratch compile:\n  recompile %v\n  compile   %v", label, f.name, f.got, f.want)
		}
	}
	ba, bb := a.Bindings(), b.Bindings()
	if len(ba) != len(bb) {
		t.Fatalf("%s: %d components, a from-scratch compile has %d", label, len(ba), len(bb))
	}
	for i := range ba {
		if !reflect.DeepEqual(ba[i].Switches, bb[i].Switches) {
			t.Errorf("%s: component %d is %v, in a from-scratch compile %v", label, i, ba[i].Switches, bb[i].Switches)
		}
		if ba[i].Class != bb[i].Class {
			t.Errorf("%s: component %d (%s...): class differs from a from-scratch compile", label, i, ba[i].Switches[0])
		}
		for j := 0; j < i; j++ {
			if (ba[i].Template == ba[j].Template) != (bb[i].Template == bb[j].Template) {
				t.Errorf("%s: components %d and %d share a template in one result only", label, j, i)
			}
		}
	}
	for alg, rs := range scratch.plan.Input.Scopes {
		got := inc.plan.Input.Scopes[alg]
		var paths [][]string
		if got != nil {
			paths, _ = got.PathList()
		}
		want, _ := rs.PathList()
		if got == nil || !reflect.DeepEqual(got.Switches, rs.Switches) || !reflect.DeepEqual(paths, want) {
			t.Errorf("%s: scope of %s resolves differently from a from-scratch compile", label, alg)
		}
	}
}

// faultsOf enumerates every single ToR-down, Agg-down and in-pod link-down of
// a fabric, plus the compound and model-only scenarios.
func faultsOf(net *Network) []Scenario {
	var scs []Scenario
	one := func(ev FaultEvent) { scs = append(scs, Scenario{Name: ev.String(), Events: []FaultEvent{ev}}) }
	for _, sw := range net.Names() {
		if podOf(sw) == 0 {
			continue
		}
		one(SwitchDown(sw))
		if strings.HasPrefix(sw, "ToR") {
			for _, agg := range net.Neighbors(sw) {
				one(LinkDown(sw, agg))
			}
		}
	}
	one(SwitchDown("Core1")) // every Agg's links change, no flow path does
	one(Degrade("Agg1_1", 1, 0.8, 1))
	one(Degrade("ToR2_2", 0.9, 1, 1))
	scs = append(scs,
		Scenario{Name: "two faults, one pod", Events: []FaultEvent{SwitchDown("ToR1_1"), LinkDown("ToR1_2", "Agg1_2")}},
		Scenario{Name: "two faults, two pods", Events: []FaultEvent{SwitchDown("ToR1_2"), SwitchDown("Agg3_1")}},
		Scenario{Name: "same fault, two pods", Events: []FaultEvent{SwitchDown("ToR2_1"), SwitchDown("ToR3_1")}},
		Scenario{Name: "fault and degrade", Events: []FaultEvent{LinkDown("ToR3_1", "Agg3_2"), Degrade("Agg2_2", 1, 0.7, 1)}},
		Scenario{Name: "a pod loses its aggregation", Events: []FaultEvent{SwitchDown("Agg2_1"), SwitchDown("Agg2_2")}},
	)
	return scs
}

// TestRecompileEqualsCompile is the contract of the local recompile (i): for
// every fault of a k=8 fabric and of a mixed-chip one, Recompile(base, sc) is
// Compile(sc.Applied(net)) — or fails the same way — and components the fault
// did not touch are the base's own. The mixed-chip fabric runs once with
// WithLazyPaths, which bench/ still passes, and once without: the option must
// change nothing.
func TestRecompileEqualsCompile(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		net  func() *Network
		opts []Option
	}{
		{"k=8", func() *Network { return uniformPods(4, 8) }, nil},
		{"mixed chips lazy", mixedPods, []Option{WithLazyPaths(0)}},
		{"mixed chips eager", mixedPods, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.opts...)
			base, err := c.Compile(ctx, podLB, podScope, tc.net())
			if err != nil {
				t.Fatalf("base compile: %v", err)
			}
			for _, sc := range faultsOf(tc.net()) {
				if sc.Name == "a pod loses its aggregation" && strings.HasPrefix(tc.name, "k=8") {
					continue // pod 2 has four Aggs there; the mixed fabric has two
				}
				mutated, err := sc.Applied(tc.net())
				if err != nil {
					t.Fatalf("%s: %v", sc.Name, err)
				}
				scratch, serr := c.Compile(ctx, podLB, podScope, mutated)
				inc, delta, ierr := c.Recompile(ctx, base, sc)
				if (serr != nil) != (ierr != nil) {
					t.Fatalf("%s: recompile error %v, from-scratch compile error %v", sc.Name, ierr, serr)
				}
				if serr != nil {
					continue
				}
				sameAsCompile(t, sc.Name, inc, scratch)

				touched := map[int]bool{}
				for _, ev := range sc.Events {
					for _, sw := range []string{ev.Switch, ev.A, ev.B} {
						if sw != "" {
							touched[podOf(sw)] = true
						}
					}
				}
				if touched[0] { // a core fault changes every Agg's record and nothing a flow sees
					if len(delta.Reprogram)+len(delta.Removed) != 0 || inc.SolverStats.Encodes != 0 {
						t.Errorf("%s: delta %v, %d encodes: want nothing reprogrammed, nothing encoded", sc.Name, delta, inc.SolverStats.Encodes)
					}
					continue
				}
				carried := 0
				for _, b := range base.plan.Bindings() {
					for _, nb := range inc.plan.Bindings() {
						if &nb.Switches[0] == &b.Switches[0] && nb.Template == b.Template {
							carried++
							if touched[podOf(b.Switches[0])] {
								t.Errorf("%s: the component of %s was carried over a fault inside it", sc.Name, b.Switches[0])
							}
						}
					}
				}
				// Two scenarios leave a k=4 pod with a switch on no flow path,
				// which the whole scope's first group adopts: the one case the
				// carry hands back to a partition of everything.
				whole := sc.Name == "a pod loses its aggregation" || (sc.Name == "two faults, one pod" && !strings.HasPrefix(tc.name, "k=8"))
				if want := len(base.plan.Bindings()) - len(touched); carried != want && !(whole && carried == 0) {
					t.Errorf("%s: %d components carried over as they were, want %d", sc.Name, carried, want)
				}
				if inc.SolverStats.Encodes > int64(len(touched)) {
					t.Errorf("%s: %d encodes for faults in %d pods", sc.Name, inc.SolverStats.Encodes, len(touched))
				}
				for _, sw := range delta.Reprogram {
					if !touched[podOf(sw)] {
						t.Errorf("%s: reprogrammed %s, a switch of an untouched pod", sc.Name, sw)
					}
				}

				// One more fault on top: the recompiled result is as good a
				// base as a compiled one.
				next := Scenario{Name: sc.Name + ", then ToR3_2 down", Events: []FaultEvent{SwitchDown("ToR3_2")}}
				twice, err := next.Applied(mutated)
				if err != nil {
					continue // ToR3_2 is what the first fault took down
				}
				scratch2, serr := c.Compile(ctx, podLB, podScope, twice)
				inc2, _, ierr := c.Recompile(ctx, inc, next)
				if (serr != nil) != (ierr != nil) {
					t.Fatalf("%s: recompile error %v, from-scratch compile error %v", next.Name, ierr, serr)
				}
				if serr == nil {
					sameAsCompile(t, next.Name, inc2, scratch2)
				}
			}
		})
	}
}

// TestIdentityRecompileSolvesNothing (iii): recompiling through no change at
// all builds no encoder, calls no solver, looks no class up, and hands back
// the base's own bindings, scopes lists, artifacts and reports.
func TestIdentityRecompileSolvesNothing(t *testing.T) {
	ctx := context.Background()
	c, name := New(), "mixed chips"
	base, err := c.Compile(ctx, podLB, podScope, mixedPods())
	if err != nil {
		t.Fatalf("%s: base compile: %v", name, err)
	}
	if base.SolverStats.Encodes != 2 || base.SolverStats.SolveCalls != 2 {
		t.Fatalf("%s: base stats %+v, want the two classes encoded and solved once each", name, base.SolverStats)
	}
	inc, delta, err := c.Recompile(ctx, base, Scenario{Name: "identity"})
	if err != nil {
		t.Fatalf("%s: identity recompile: %v", name, err)
	}
	st := inc.SolverStats
	if st.Encodes != 0 || st.SolveCalls != 0 || st.CacheHits != 0 {
		t.Errorf("%s: identity recompile stats %+v, want nothing encoded, solved or looked up", name, st)
	}
	if inc.plan.Classes != 0 || inc.plan.Replayed != 3 || inc.SolveInstances != 3 {
		t.Errorf("%s: Classes/Replayed/Instances = %d/%d/%d, want 0/3/3", name, inc.plan.Classes, inc.plan.Replayed, inc.SolveInstances)
	}
	bb, ib := base.plan.Bindings(), inc.plan.Bindings()
	if len(ib) != len(bb) {
		t.Fatalf("%s: %d bindings, base has %d", name, len(ib), len(bb))
	}
	for i := range bb {
		if ib[i].Template != bb[i].Template || &ib[i].Switches[0] != &bb[i].Switches[0] || ib[i].Class != bb[i].Class {
			t.Errorf("%s: binding %d is not the base's own", name, i)
		}
	}
	if len(delta.Reprogram)+len(delta.Removed) != 0 || len(delta.Unchanged) != len(base.Artifacts) {
		t.Errorf("%s: identity recompile produced a device delta: %v", name, delta)
	}
	for sw, art := range base.Artifacts {
		if inc.Artifacts[sw] != art {
			t.Errorf("%s: %s: artifact re-emitted", name, sw)
		}
	}
	sameAsCompile(t, name+" identity", inc, base)
}

// uncarried is base as a result that has nothing to carry over: no plan to
// follow and no memo, so a recompile from it resolves, partitions and solves
// the degraded network whole.
func uncarried(base *Result) *Result {
	cres := *base.cres
	cres.Plan, cres.Cache = nil, nil
	ref := *base
	ref.cres = &cres
	return &ref
}

// TestRecompileErrorsUnchanged (ii): a fault that empties a region or a
// direction set, disconnects every flow path, or leaves no feasible placement
// fails with the text a recompile that carries nothing over fails with.
func TestRecompileErrorsUnchanged(t *testing.T) {
	ctx := context.Background()
	const pinned = "loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]\npin: [ ToR1 | PER-SW | - ]\n"
	const src = podLB + "pipeline[P]{pin};\nalgorithm pin {\n  if (ipv4.protocol == 6) {\n    ipv4.protocol = 17;\n  }\n}\n"
	c, name := New(), "testbed"
	base, err := c.Compile(ctx, src, pinned, Testbed())
	if err != nil {
		t.Fatalf("%s: base compile: %v", name, err)
	}
	for _, tc := range []struct {
		want string
		evs  []FaultEvent
	}{
		{"region [ToR1] matches no surviving switch", []FaultEvent{SwitchDown("ToR1")}},
		{"patterns [Agg3 Agg4] match no surviving switch", []FaultEvent{SwitchDown("Agg3"), SwitchDown("Agg4")}},
		{"patterns [ToR3 ToR4] match no surviving switch", []FaultEvent{SwitchDown("ToR3"), SwitchDown("ToR4")}},
		{"no flow path from [Agg3 Agg4] to [ToR3 ToR4] within [Agg3 Agg4 ToR3 ToR4]", []FaultEvent{
			LinkDown("ToR3", "Agg3"), LinkDown("ToR3", "Agg4"), LinkDown("ToR4", "Agg3"), LinkDown("ToR4", "Agg4")}},
		{"no feasible placement", []FaultEvent{Degrade("ToR3", 1, 0.01, 1), Degrade("ToR4", 1, 0.01, 1),
			Degrade("Agg3", 1, 0.01, 1), Degrade("Agg4", 1, 0.01, 1)}},
	} {
		sc := Scenario{Name: tc.want, Events: tc.evs}
		_, _, got := c.Recompile(ctx, base, sc)
		_, _, want := c.Recompile(ctx, uncarried(base), sc)
		if got == nil || want == nil {
			t.Errorf("%s: %s: recompile error %v, carrying nothing over %v: want both to fail", name, tc.want, got, want)
			continue
		}
		if got.Error() != want.Error() || !strings.Contains(got.Error(), tc.want) {
			t.Errorf("%s: recompile fails with\n  %v\ncarrying nothing over with\n  %v\nwant both to say %q", name, got, want, tc.want)
		}
		if errors.Is(got, ErrInfeasible) != errors.Is(want, ErrInfeasible) {
			t.Errorf("%s: %s: only one of the two errors is ErrInfeasible: %v vs %v", name, tc.want, got, want)
		}
	}
}

// TestResultNetworkIsCallersOwn: networks share storage now, so the one a
// Result hands out must be safe to mutate — neither the result it came from
// nor the base it was recompiled from may notice — and two recompiles from one
// base must be able to run while the base's flow paths are being walked.
func TestResultNetworkIsCallersOwn(t *testing.T) {
	ctx := context.Background()
	c := New()
	mine := uniformPods(4, 4)
	base, err := c.Compile(ctx, podLB, podScope, mine)
	if err != nil {
		t.Fatal(err)
	}
	// The network the caller compiled is theirs to edit afterwards; the
	// result's own view, which recompiles compare against, does not move.
	if err := mine.RemoveSwitch("ToR1_1"); err != nil {
		t.Fatal(err)
	}
	if base.Network().Switch("ToR1_1") == nil {
		t.Error("editing the compiled network afterwards changed the result's network")
	}
	same, _, err := c.Recompile(ctx, base, Scenario{Name: "identity"})
	if err != nil {
		t.Fatal(err)
	}
	sameAsCompile(t, "identity recompile after the caller edited their network", same, base)
	sc := Scenario{Name: "tor", Events: []FaultEvent{SwitchDown("ToR2_1")}}
	inc, _, err := c.Recompile(ctx, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*Result{base, inc} {
		n := res.Network()
		if err := n.RemoveSwitch("Agg3_1"); err != nil {
			t.Fatal(err)
		}
		if err := n.DegradeASIC("ToR4_1", func(m *ChipModel) *ChipModel { return asic.Scale(m, 0.5, 0.5, 0.5) }); err != nil {
			t.Fatal(err)
		}
		if res.Network().Switch("Agg3_1") == nil || res.Network().Switch("ToR4_1").ASIC != asic.Tofino32Q {
			t.Error("mutating Result.Network() changed the result's network")
		}
	}
	again, _, err := c.Recompile(ctx, base, sc)
	if err != nil {
		t.Fatal(err)
	}
	sameAsCompile(t, "recompile after the caller mutated both networks", again, inc)
	next := Scenario{Name: "agg", Events: []FaultEvent{SwitchDown("Agg2_2")}}
	chained, _, err := c.Recompile(ctx, inc, next)
	if err != nil {
		t.Fatal(err)
	}
	mutated, _ := Scenario{Events: []FaultEvent{SwitchDown("ToR2_1"), SwitchDown("Agg2_2")}}.Applied(uniformPods(4, 4))
	scratch, err := c.Compile(ctx, podLB, podScope, mutated)
	if err != nil {
		t.Fatal(err)
	}
	sameAsCompile(t, "chained recompile after the caller mutated both networks", chained, scratch)

	var wg sync.WaitGroup
	incs := make([]*Result, 2)
	for i, ev := range []FaultEvent{SwitchDown("ToR1_2"), LinkDown("ToR3_1", "Agg3_2")} {
		wg.Add(1)
		go func(i int, ev FaultEvent) {
			defer wg.Done()
			var err error
			if incs[i], _, err = c.Recompile(ctx, base, Scenario{Events: []FaultEvent{ev}}); err != nil {
				t.Error(err)
			}
		}(i, ev)
	}
	for i := 0; i < 20; i++ {
		if n, err := base.plan.Input.Scopes["loadbalancer"].PathSet.Count(0); n != 4*2*2 || err != nil {
			t.Errorf("base has %d flow paths (%v) while recompiles run, want 16", n, err)
		}
	}
	wg.Wait()
	for i, ev := range []FaultEvent{SwitchDown("ToR1_2"), LinkDown("ToR3_1", "Agg3_2")} {
		mutated, _ := Scenario{Events: []FaultEvent{ev}}.Applied(uniformPods(4, 4))
		scratch, err := c.Compile(ctx, podLB, podScope, mutated)
		if err != nil || incs[i] == nil {
			t.Fatal(err)
		}
		sameAsCompile(t, "concurrent "+ev.String(), incs[i], scratch)
	}
}

// TestRecompileAllocBudget (vi) keeps what a recompile allocates proportional
// to the fault. The churn mix on the k=8 fabric (8 pods, 64 programmed
// switches, 7 of 8 components carried over): a ToR down, whose damaged pod is
// a class the memo knows after the first one, and a link down, which is a new
// class nearly every time and is encoded and solved. Together they measured
// 290 KB and 3.1 k mallocs per event when the budget was first set, 176 KB
// and 1.7 k once encoding stopped allocating per clause and per variable, 123
// KB and 1.65 k once the plan stopped keeping name-keyed maps of the whole
// fabric, and 121 KB and 1.66 k once a topology edit stopped copying the name
// index; the budget is ~1.3x that, so work that creeps back from per fault to
// per fabric fails here rather than in the gate benchmark.
func TestRecompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	const bytesPerEvent, mallocsPerEvent = 157_000, 2150
	ctx := context.Background()
	c := New(WithParallelism(1))
	base, err := c.Compile(ctx, podLB, podScope, uniformPods(8, 8))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	events := func(round int) []Scenario {
		pod, n := 1+round%8, 1+round%4
		tor, agg := fmt.Sprintf("ToR%d_%d", pod, n), fmt.Sprintf("Agg%d_%d", pod, 1+(round+1)%4)
		return []Scenario{{Events: []FaultEvent{SwitchDown(tor)}}, {Events: []FaultEvent{LinkDown(tor, agg)}}}
	}
	run := func(round int) {
		for _, sc := range events(round) {
			res, _, err := c.Recompile(ctx, base, sc)
			if err != nil {
				t.Fatalf("recompile: %v", err)
			}
			if res.SolverStats.Encodes > 1 {
				t.Fatalf("%d encodes for one fault", res.SolverStats.Encodes)
			}
		}
	}
	run(0) // warm-up: the one-ToR-down class enters the memo
	const rounds = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 1; r <= rounds; r++ {
		run(r)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / rounds / 2
	mallocs := (after.Mallocs - before.Mallocs) / rounds / 2
	t.Logf("%d bytes, %d mallocs per recompile event", bytes, mallocs)
	if bytes > bytesPerEvent {
		t.Errorf("a recompile allocates %d bytes per event, budget %d", bytes, bytesPerEvent)
	}
	if mallocs > mallocsPerEvent {
		t.Errorf("a recompile makes %d mallocs per event, budget %d", mallocs, mallocsPerEvent)
	}
}

// TestRecompileEventScaling logs what one recompile event allocates as the
// fabric grows: a ToR down and a link down of that ToR, each recompiled from
// the pristine base of a k-pod, k-port fat tree, at k = 16, 32 and 64. It is
// a measurement, not a contract — it asserts nothing about the numbers, and
// the short test run skips it (the k=64 base compile alone is seconds).
func TestRecompileEventScaling(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("a measurement: run without -short and without -race")
	}
	ctx := context.Background()
	const events = 8
	t.Log("event        k   switches   MB/event   mallocs/event")
	for _, k := range []int{16, 32, 64} {
		c := New(WithParallelism(1))
		base, err := c.Compile(ctx, podLB, podScope, uniformPods(k, k))
		if err != nil {
			t.Fatalf("k=%d: compile: %v", k, err)
		}
		rng := rand.New(rand.NewSource(int64(k)))
		pairs := make([][2]string, events+1) // the first is the warm-up
		for i := range pairs {
			pod := 1 + rng.Intn(k)
			pairs[i] = [2]string{fmt.Sprintf("ToR%d_%d", pod, 1+rng.Intn(k/2)), fmt.Sprintf("Agg%d_%d", pod, 1+rng.Intn(k/2))}
		}
		for _, kind := range []string{"switch-down", "link-down"} {
			event := func(p [2]string) Scenario {
				if kind == "switch-down" {
					return Scenario{Events: []FaultEvent{SwitchDown(p[0])}}
				}
				return Scenario{Events: []FaultEvent{LinkDown(p[0], p[1])}}
			}
			if _, _, err := c.Recompile(ctx, base, event(pairs[0])); err != nil {
				t.Fatalf("k=%d %s: %v", k, kind, err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, p := range pairs[1:] {
				if _, _, err := c.Recompile(ctx, base, event(p)); err != nil {
					t.Fatalf("k=%d %s: %v", k, kind, err)
				}
			}
			runtime.ReadMemStats(&after)
			t.Logf("%-11s %3d %10d %10.3f %15d", kind, k, len(base.Artifacts),
				float64(after.TotalAlloc-before.TotalAlloc)/events/1e6, (after.Mallocs-before.Mallocs)/events)
		}
	}
}

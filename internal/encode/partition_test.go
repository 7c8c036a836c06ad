package encode

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"lyra/internal/topo"
)

// twoAlgSrc declares two algorithms with no shared state, so the only
// coupling between them is whatever their scopes impose.
const twoAlgSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[A]{lb_a};
pipeline[B]{lb_b};
algorithm lb_a {
  extern dict<bit[32] vip, bit[32] dip>[1024] vip_a;
  if (ipv4.dstAddr in vip_a) {
    ipv4.dstAddr = vip_a[ipv4.dstAddr];
  }
}
algorithm lb_b {
  extern dict<bit[32] vip, bit[32] dip>[1024] vip_b;
  if (ipv4.srcAddr in vip_b) {
    ipv4.srcAddr = vip_b[ipv4.srcAddr];
  }
}
`

const disjointScopes = `
lb_a: [ ToR1 | PER-SW | - ]
lb_b: [ ToR2 | PER-SW | - ]
`

const overlappingScopes = `
lb_a: [ ToR1,ToR2 | PER-SW | - ]
lb_b: [ ToR2 | PER-SW | - ]
`

func TestPartitionDisjointScopes(t *testing.T) {
	in := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
	comps := mustPartition(t, in)
	if len(comps) != 2 {
		t.Fatalf("Partition returned %d components, want 2", len(comps))
	}
	if comps[0].Label() != "lb_a" || comps[1].Label() != "lb_b" {
		t.Errorf("component labels = %q, %q; want lb_a, lb_b", comps[0].Label(), comps[1].Label())
	}
	for _, c := range comps {
		if got := len(c.In.IR.Algorithms); got != 1 {
			t.Errorf("component %s has %d algorithms, want 1", c.Label(), got)
		}
		if got := len(c.In.Scopes); got != 1 {
			t.Errorf("component %s has %d scopes, want 1", c.Label(), got)
		}
	}
}

func TestPartitionOverlappingScopes(t *testing.T) {
	in := buildInput(t, twoAlgSrc, overlappingScopes, topo.Testbed())
	comps := mustPartition(t, in)
	if len(comps) != 1 {
		t.Fatalf("Partition returned %d components, want 1 (monolithic fallback)", len(comps))
	}
	if comps[0].Label() != "lb_a+lb_b" {
		t.Errorf("component label = %q, want lb_a+lb_b", comps[0].Label())
	}
}

func TestPartitionSingleAlgorithm(t *testing.T) {
	net := topo.Testbed()
	in := buildInput(t, subst(lbSrc, "1024", "1024"),
		"loadbalancer: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]", net)
	if comps := mustPartition(t, in); len(comps) != 1 {
		t.Fatalf("Partition returned %d components, want 1", len(comps))
	}
}

// TestSolveDisjointComponents asserts the tentpole behavior: disjoint
// scopes solve as independent SMT instances whose merged plan covers the
// whole program, with the per-component trail visible in Diagnostics.
func TestSolveDisjointComponents(t *testing.T) {
	in := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.Instances != 2 {
		t.Fatalf("plan.Instances = %d, want 2 independent SMT instances", plan.Instances)
	}
	// Both components' admissions ran: at least one theory check each.
	if plan.Stats.TheoryChecks < 2 {
		t.Errorf("aggregated TheoryChecks = %d, want >= 2", plan.Stats.TheoryChecks)
	}
	for _, alg := range []string{"lb_a", "lb_b"} {
		if hostsOf(plan, alg, 0) == nil {
			t.Errorf("merged plan missing placement for %s", alg)
		}
	}
	for _, sw := range []string{"ToR1", "ToR2"} {
		if plan.AllocationOf(sw) == nil {
			t.Errorf("merged plan missing allocation for %s", sw)
		}
		if len(plan.TablesOf(sw)) == 0 {
			t.Errorf("merged plan has no tables on %s", sw)
		}
	}
	if plan.Diagnostics == nil || len(plan.Diagnostics.Attempts) != 2 {
		t.Fatalf("Diagnostics.Attempts = %+v, want one per component", plan.Diagnostics)
	}
	seen := map[string]bool{}
	for _, a := range plan.Diagnostics.Attempts {
		seen[a.Component] = true
	}
	if !seen["lb_a"] || !seen["lb_b"] {
		t.Errorf("attempt components = %v, want lb_a and lb_b", seen)
	}
}

func TestSolveOverlappingScopesMonolithic(t *testing.T) {
	in := buildInput(t, twoAlgSrc, overlappingScopes, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.Instances != 1 {
		t.Fatalf("plan.Instances = %d, want 1 (monolithic fallback)", plan.Instances)
	}
	for _, a := range plan.Diagnostics.Attempts {
		if a.Component != "" {
			t.Errorf("monolithic attempt labeled %q, want empty", a.Component)
		}
	}
}

// TestSolveParallelismInvariant asserts that the worker-pool size never
// changes the solved plan, only how long it takes.
func TestSolveParallelismInvariant(t *testing.T) {
	for _, workers := range []int{1, 8} {
		workers := workers
		in := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
		opts := DefaultOptions()
		opts.Parallelism = workers
		plan, err := Solve(in, opts)
		if err != nil {
			t.Fatalf("Solve(parallelism=%d): %v", workers, err)
		}
		ref := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
		refPlan, err := Solve(ref, DefaultOptions())
		if err != nil {
			t.Fatalf("Solve(reference): %v", err)
		}
		planEqual(t, fmt.Sprintf("parallelism=%d", workers), plan, refPlan)
	}
}

// TestSolveTimeSplit asserts EncodeTime+SolveTime account for the full
// Solve wall time (the basis of the Result.Phases contract).
func TestSolveTimeSplit(t *testing.T) {
	in := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
	plan, err := Solve(in, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if plan.EncodeTime < 0 || plan.SolveTime < 0 {
		t.Fatalf("negative phase time: encode=%v solve=%v", plan.EncodeTime, plan.SolveTime)
	}
	if plan.EncodeTime+plan.SolveTime <= 0 {
		t.Errorf("EncodeTime+SolveTime = 0, want > 0")
	}
}

// hugeDictSrc parameterizes twoAlgSrc so either algorithm's dictionary can
// be inflated past any chip's table budget (A/B sizes substituted in).
const hugeDictSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[A]{lb_a};
pipeline[B]{lb_b};
algorithm lb_a {
  extern dict<bit[32] vip, bit[32] dip>[ASIZE] vip_a;
  if (ipv4.dstAddr in vip_a) {
    ipv4.dstAddr = vip_a[ipv4.dstAddr];
  }
}
algorithm lb_b {
  extern dict<bit[32] vip, bit[32] dip>[BSIZE] vip_b;
  if (ipv4.srcAddr in vip_b) {
    ipv4.srcAddr = vip_b[ipv4.srcAddr];
  }
}
`

func hugeDictInput(t *testing.T, aSize, bSize string) *Input {
	t.Helper()
	src := replaceAll(replaceAll(hugeDictSrc, "ASIZE", aSize), "BSIZE", bSize)
	return buildInput(t, src, disjointScopes, topo.Testbed())
}

// TestSolveComponentFailureNamed: when one of several components fails, the
// error must name that component so the user knows which algorithm group to
// look at, and must still unwrap to the underlying cause.
func TestSolveComponentFailureNamed(t *testing.T) {
	in := hugeDictInput(t, "1024", "40000000")
	_, err := Solve(in, nil)
	if err == nil {
		t.Fatal("want component failure")
	}
	if !strings.Contains(err.Error(), "component lb_b:") {
		t.Errorf("error %q does not name the failing component lb_b", err)
	}
	if strings.Contains(err.Error(), "component lb_a") {
		t.Errorf("error %q blames the healthy component lb_a", err)
	}
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible through the component wrapper", err)
	}
}

// TestSolveComponentFailureDeterministic: when several components fail, the
// lowest-index one is reported no matter which goroutine finished first.
func TestSolveComponentFailureDeterministic(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		in := hugeDictInput(t, "40000000", "40000000")
		opts := DefaultOptions()
		opts.Parallelism = 8
		_, err := Solve(in, opts)
		if err == nil {
			t.Fatal("want component failure")
		}
		if !strings.Contains(err.Error(), "component lb_a:") {
			t.Fatalf("trial %d: error %q, want the first failing component lb_a", trial, err)
		}
	}
}

// TestMergePlansDeterministic: the merged plan must be identical across
// repeated parallel solves — component results are merged in component
// order, not completion order.
func TestMergePlansDeterministic(t *testing.T) {
	solve := func() *Plan {
		in := buildInput(t, twoAlgSrc, disjointScopes, topo.Testbed())
		opts := DefaultOptions()
		opts.Parallelism = 8
		plan, err := Solve(in, opts)
		if err != nil {
			t.Fatalf("Solve: %v", err)
		}
		return plan
	}
	ref := solve()
	var refComps []string
	for _, a := range ref.Diagnostics.Attempts {
		refComps = append(refComps, a.Component)
	}
	for trial := 0; trial < 5; trial++ {
		plan := solve()
		planEqual(t, fmt.Sprintf("trial %d", trial), plan, ref)
		var comps []string
		for _, a := range plan.Diagnostics.Attempts {
			comps = append(comps, a.Component)
		}
		if !reflect.DeepEqual(comps, refComps) {
			t.Fatalf("trial %d: attempt order %v, want %v", trial, comps, refComps)
		}
	}
}

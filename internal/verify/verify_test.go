package verify

import (
	"strings"
	"testing"

	"lyra/internal/backend"
	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

func compile(t *testing.T, src, scopeText string) (*encode.Plan, map[string]*backend.Artifact) {
	t.Helper()
	prog, err := parser.Parse("t.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := checker.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	irp, err := frontend.Preprocess(prog)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	frontend.Analyze(irp)
	spec, err := scope.Parse(scopeText)
	if err != nil {
		t.Fatal(err)
	}
	net := topo.Testbed()
	scopes, err := spec.Resolve(net)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := encode.Solve(&encode.Input{IR: irp, Net: net, Scopes: scopes}, nil)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	arts, err := backend.Translate(plan, nil)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return plan, arts
}

const src = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; }
header ipv4_t ipv4;
pipeline[P]{filter};
algorithm filter {
  extern list<bit[32] ip>[1024] watch;
  if (ipv4.srcAddr in watch) {
    enabled = 1;
    forward(3);
  }
}
`

func TestPlanAllOK(t *testing.T) {
	plan, arts := compile(t, src, "filter: [ ToR1,Agg1 | PER-SW | - ]")
	reports := Plan(plan, arts)
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		if !r.OK {
			t.Errorf("%s (%s): %v", r.Switch, r.Dialect, r.Problems)
		}
		if r.Alloc == nil {
			t.Errorf("%s: no allocation", r.Switch)
		}
	}
}

func TestLintCatchesCorruption(t *testing.T) {
	_, arts := compile(t, src, "filter: [ ToR1 | PER-SW | - ]")
	art := arts["ToR1"]
	// Corrupt the code: drop the control block.
	art.Code = strings.Replace(art.Code, "control ingress", "control something_else", 1)
	problems := Lint(art)
	if len(problems) == 0 {
		t.Fatal("lint missed missing ingress control")
	}
}

func TestLintUnbalancedBraces(t *testing.T) {
	_, arts := compile(t, src, "filter: [ ToR1 | PER-SW | - ]")
	art := arts["ToR1"]
	art.Code += "\n{"
	found := false
	for _, p := range Lint(art) {
		if strings.Contains(p, "unbalanced") {
			found = true
		}
	}
	if !found {
		t.Fatal("lint missed unbalanced braces")
	}
}

func TestAdmitRejectsOversized(t *testing.T) {
	plan, arts := compile(t, src, "filter: [ ToR1 | PER-SW | - ]")
	_ = plan
	sp := arts["ToR1"].Program
	// Inflate the placed table far beyond chip capacity.
	for _, pt := range sp.Tables {
		pt.Entries = 500_000_000
	}
	if _, err := Admit(sp); err == nil {
		t.Fatal("oversized program must be rejected")
	}
}

func TestNPLLint(t *testing.T) {
	_, arts := compile(t, src, "filter: [ Agg1 | PER-SW | - ]")
	art := arts["Agg1"]
	if art.Dialect != "NPL" {
		t.Fatalf("dialect = %s", art.Dialect)
	}
	if probs := Lint(art); len(probs) != 0 {
		t.Fatalf("clean NPL flagged: %v", probs)
	}
	art.Code = strings.Replace(art.Code, "program lyra", "program nope", 1)
	if probs := Lint(art); len(probs) == 0 {
		t.Fatal("lint missed missing program block")
	}
}

func TestCapacityFlagOnAllocError(t *testing.T) {
	_, arts := compile(t, src, "filter: [ ToR1 | PER-SW | - ]")
	art := arts["ToR1"]
	// Inflate the placed tables beyond chip capacity: admission fails with
	// an asic.AllocError, which must be classified as a capacity failure.
	for _, pt := range art.Program.Tables {
		pt.Entries = 500_000_000
	}
	r := verifyOne("ToR1", art)
	if r.OK {
		t.Fatal("oversized program must not verify")
	}
	if !r.Capacity {
		t.Fatalf("AllocError must set Capacity, got %+v", r)
	}

	// A lint defect on top of the same overflow is a code problem and must
	// clear the flag: the failure is no longer explained by capacity alone.
	art.Code = strings.Replace(art.Code, "control ingress", "control something_else", 1)
	r = verifyOne("ToR1", art)
	if r.OK || r.Capacity {
		t.Fatalf("lint problem must clear Capacity, got %+v", r)
	}
}

// TestSharedReportNeedsTheCheckedText: a report in a family's shape memo is
// taken only for the very text it was checked on. The same text takes it (the
// allocation admission made is the memoised one); an artifact of the same
// shape whose text differs past the header line is checked on its own.
func TestSharedReportNeedsTheCheckedText(t *testing.T) {
	plan, arts := compile(t, src, "filter: [ ToR1 | PER-SW | - ]")
	memo := new(backend.Shapes)
	first := PlanShared(plan, arts, 1, memo)
	if len(first) != 1 || !first[0].OK {
		t.Fatalf("clean artifact: %+v", first)
	}
	if r := PlanShared(plan, arts, 1, memo); !r[0].OK || r[0].Alloc != first[0].Alloc {
		t.Error("the checked artifact was not answered from the memo")
	}
	bad := *arts["ToR1"]
	bad.Code = strings.Replace(bad.Code, "control ingress", "control something_else", 1)
	if r := PlanShared(plan, map[string]*backend.Artifact{"ToR1": &bad}, 1, memo); r[0].OK {
		t.Error("a corrupted artifact took the memoised report of its shape")
	}
}

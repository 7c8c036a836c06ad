package rewrite

import (
	"context"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"lyra/internal/asic"
	"lyra/internal/dataplane"
	"lyra/internal/encode"
	"lyra/internal/frontend"
	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
	"lyra/internal/scope"
	"lyra/internal/topo"
)

// nestedIfSrc is the Figure-9-style scenario the search must improve: the
// inner comparison is guarded, so base synthesis cannot absorb it and emits
// two tables (compute + gateway); hoisting it merges them into one
// multi-field match table (the paper's §7.1 NetCache-style merge).
const nestedIfSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] tos; bit[8] ttl; }
header ipv4_t ipv4;
pipeline[ACL]{acl};
algorithm acl {
  if (ipv4.tos == 1) {
    if (ipv4.ttl == 2) {
      drop();
    }
  }
}
`

// ifElseSrc exercises the select merge/split pair: complementary guarded
// writes to the same field.
const ifElseSrc = `
header_type h_t { bit[8] a; bit[8] b; bit[16] c; }
header h_t h;
pipeline[P]{m};
algorithm m {
  if (h.a == 3) {
    h.c = 7;
  } else {
    h.c = 9;
  }
  h.b = h.a + 1;
}
`

// lbSrc exercises extern tables, hashing, and key widening (the 20-bit key
// is not byte-aligned).
const lbSrc = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[LB]{lb};
algorithm lb {
  extern dict<bit[20] hash, bit[32] ip>[1024] conn_table;
  bit[20] hash;
  hash = crc16_hash(ipv4.srcAddr, ipv4.dstAddr);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  }
}
`

func frontIR(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("test.lyra", []byte(src))
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
	return irp
}

func mustScopes(t *testing.T, spec string, net *topo.Network) map[string]*scope.Resolved {
	t.Helper()
	sp, err := scope.Parse(spec)
	if err != nil {
		t.Fatalf("scope parse: %v", err)
	}
	scopes, err := sp.Resolve(net)
	if err != nil {
		t.Fatalf("scope resolve: %v", err)
	}
	return scopes
}

// refDiff runs both programs under the one-big-pipeline reference on seeded
// traces and returns the first divergence ("" when equivalent).
func refDiff(t *testing.T, base, cand *ir.Program, seed int64) string {
	t.Helper()
	tables := certTables(base, seed)
	ctx := certContext()
	for ti, pkt := range certPackets(base, seed, 32) {
		rb, err := dataplane.RunReference(base, tables, ctx, pkt)
		if err != nil {
			t.Fatalf("base reference: %v", err)
		}
		rc, err := dataplane.RunReference(cand, tables, ctx, pkt)
		if err != nil {
			return "candidate reference error: " + err.Error()
		}
		if diffs := dataplane.DiffPackets(rb, rc, nil); len(diffs) > 0 {
			return strings.Join(append([]string{"packet#" + string(rune('0'+ti))}, diffs...), "; ")
		}
	}
	return ""
}

// TestDefaultRulesPreserveReferenceSemantics applies every library rule to
// a corpus of programs (including the real NetCache reproduction) and
// checks each candidate against the base under reference semantics. This is
// the rule-by-rule equivalence suite the CI optimize-smoke job runs under
// -race.
func TestDefaultRulesPreserveReferenceSemantics(t *testing.T) {
	sources := map[string]string{
		"nested-if": nestedIfSrc,
		"if-else":   ifElseSrc,
		"lb":        lbSrc,
	}
	if b, err := os.ReadFile("../../testdata/programs/netcache.lyra"); err == nil {
		sources["netcache"] = string(b)
	}
	total := 0
	for name, src := range sources {
		base := frontIR(t, src)
		baseFP := Fingerprint(base)
		for _, r := range DefaultRules() {
			for i, cand := range r.Apply(base) {
				total++
				Normalize(cand)
				if d := refDiff(t, base, cand, 7); d != "" {
					t.Errorf("%s: rule %s candidate %d diverges: %s", name, r.Name(), i, d)
				}
				if Fingerprint(base) != baseFP {
					t.Fatalf("%s: rule %s mutated its input program", name, r.Name())
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no rule produced any candidate on the corpus")
	}
}

// TestRuleChainsPreserveReferenceSemantics goes one level deeper: every
// depth-2 chain of rule applications must still be equivalent.
func TestRuleChainsPreserveReferenceSemantics(t *testing.T) {
	base := frontIR(t, nestedIfSrc)
	for _, r1 := range DefaultRules() {
		for _, mid := range r1.Apply(base) {
			Normalize(mid)
			for _, r2 := range DefaultRules() {
				for i, cand := range r2.Apply(mid) {
					Normalize(cand)
					if d := refDiff(t, base, cand, 11); d != "" {
						t.Errorf("chain %s,%s candidate %d diverges: %s", r1.Name(), r2.Name(), i, d)
					}
				}
			}
		}
	}
}

func TestMergeGatewayHoistsNestedComparison(t *testing.T) {
	base := frontIR(t, nestedIfSrc)
	cands := mergeGatewayRule{}.Apply(base)
	if len(cands) != 1 {
		t.Fatalf("merge-gateway candidates = %d, want 1", len(cands))
	}
	Normalize(cands[0])
	if got, want := staticCostOf(cands[0]).tables, staticCostOf(base).tables; got >= want {
		t.Errorf("hoisted variant has %d synthesized tables, base %d: no reduction", got, want)
	}
}

func TestWidenKeyRoundsToByteBoundary(t *testing.T) {
	base := frontIR(t, lbSrc)
	cands := widenKeyRule{}.Apply(base)
	if len(cands) != 1 {
		t.Fatalf("widen-key candidates = %d, want 1", len(cands))
	}
	var widened *ir.ExternDecl
	for _, a := range cands[0].Algorithms {
		for _, e := range a.Externs {
			if e.Name == "conn_table" {
				widened = e
			}
		}
	}
	if widened == nil {
		t.Fatal("clone lost the extern declaration")
	}
	if got := widened.Keys[0].Type.Bits; got != 24 {
		t.Errorf("widened key bits = %d, want 24", got)
	}
	// The original must be untouched.
	for _, a := range base.Algorithms {
		for _, e := range a.Externs {
			if e.Name == "conn_table" && e.Keys[0].Type.Bits != 20 {
				t.Errorf("base key bits mutated to %d", e.Keys[0].Type.Bits)
			}
		}
	}
}

func TestMergeSelectFusesComplementaryWrites(t *testing.T) {
	base := frontIR(t, ifElseSrc)
	cands := mergeSelectRule{}.Apply(base)
	if len(cands) == 0 {
		t.Fatal("merge-select produced no candidate on an if/else write pair")
	}
	found := false
	for _, a := range cands[0].Algorithms {
		for _, in := range a.Instrs {
			if in.Op == ir.ISelect {
				found = true
			}
		}
	}
	if !found {
		t.Error("merged candidate contains no select instruction")
	}
}

// searchFixture solves over the k=4 fat-tree pod the CI smoke job uses.
func searchFixture(t *testing.T) (*ir.Program, *topo.Network, map[string]*scope.Resolved) {
	t.Helper()
	base := frontIR(t, nestedIfSrc)
	net := topo.FatTreePod(4, asic.Tofino32Q)
	scopes := mustScopes(t, "acl: [ ToR1 | PER-SW | - ]", net)
	return base, net, scopes
}

func searchOpts() Options {
	return Options{
		MaxCandidates: 8,
		BeamWidth:     4,
		MaxDepth:      2,
		Seed:          1,
		TracePackets:  16,
		SolveBudget:   30 * time.Second,
	}
}

// TestSearchFindsCertifiedImprovement is the headline acceptance check: on
// the nested-if scenario the search must find a certified variant with
// strictly lower cost (fewer placed tables) than the unrewritten program.
func TestSearchFindsCertifiedImprovement(t *testing.T) {
	base, net, scopes := searchFixture(t)
	winner, rep := Search(context.Background(), base, net, scopes, searchOpts())
	if rep.Note != "" {
		t.Fatalf("search note: %s", rep.Note)
	}
	if !rep.Improved {
		t.Fatalf("no certified improvement found; report:\n%s", rep)
	}
	if !rep.BestCost.Less(rep.BaseCost) {
		t.Errorf("best cost %s not strictly below base %s", rep.BestCost, rep.BaseCost)
	}
	if rep.BestCost.PlacedTables >= rep.BaseCost.PlacedTables {
		t.Errorf("placed tables %d -> %d: no reduction", rep.BaseCost.PlacedTables, rep.BestCost.PlacedTables)
	}
	if len(rep.Applied) == 0 || rep.Applied[0] != "merge-gateway" {
		t.Errorf("applied chain = %v, want merge-gateway first", rep.Applied)
	}
	if rep.CertifyAttempts == 0 || rep.Rejected != 0 {
		t.Errorf("certify attempts=%d rejected=%d, want >0 and 0", rep.CertifyAttempts, rep.Rejected)
	}
	if Fingerprint(winner) != rep.WinnerFingerprint || rep.WinnerFingerprint == rep.BaseFingerprint {
		t.Errorf("winner fingerprint bookkeeping wrong: %s vs report %s (base %s)",
			Fingerprint(winner), rep.WinnerFingerprint, rep.BaseFingerprint)
	}
	if d := refDiff(t, base, winner, 99); d != "" {
		t.Errorf("winner diverges from base on fresh traces: %s", d)
	}
}

// brokenHoist mimics merge-gateway's cost win but corrupts semantics: after
// hoisting it also perturbs the first unconditional comparison's constant.
// Certification must catch and reject every candidate it emits.
type brokenHoist struct{}

func (brokenHoist) Name() string { return "broken-hoist" }

func (brokenHoist) Apply(p *ir.Program) []*ir.Program {
	out := mergeGatewayRule{}.Apply(p)
	for _, q := range out {
		corruptFirstComparison(q)
	}
	return out
}

func corruptFirstComparison(q *ir.Program) {
	for _, a := range q.Algorithms {
		for _, in := range a.Instrs {
			if in.Op == ir.IBin && in.BinOp.IsComparison() && len(in.Guard) == 0 {
				for k := range in.Args {
					if in.Args[k].Kind == ir.OpdConst {
						in.Args[k].Const++
						return
					}
				}
			}
		}
	}
}

// TestBrokenRuleIsRejected proves the certification gate works: a rule that
// produces cheaper but behaviorally different programs must never win.
func TestBrokenRuleIsRejected(t *testing.T) {
	base, net, scopes := searchFixture(t)
	opts := searchOpts()
	opts.Rules = []Rule{brokenHoist{}}
	winner, rep := Search(context.Background(), base, net, scopes, opts)
	if rep.CertifyAttempts == 0 {
		t.Fatalf("broken candidate never reached certification; report:\n%s", rep)
	}
	if rep.Rejected == 0 {
		t.Fatalf("broken candidate was not rejected; report:\n%s", rep)
	}
	if rep.Improved {
		t.Fatalf("broken candidate won the search; report:\n%s", rep)
	}
	if rep.WinnerFingerprint != rep.BaseFingerprint || Fingerprint(winner) != rep.BaseFingerprint {
		t.Error("search did not fall back to the base program")
	}
	if rep.RejectionDetail == "" || !strings.Contains(rep.RejectionDetail, "broken-hoist") {
		t.Errorf("rejection detail %q does not name the rule chain", rep.RejectionDetail)
	}
}

// TestSearchDeterministic: two searches over identical inputs must produce
// byte-identical winning programs and reports.
func TestSearchDeterministic(t *testing.T) {
	run := func() (string, *Report) {
		base, net, scopes := searchFixture(t)
		winner, rep := Search(context.Background(), base, net, scopes, searchOpts())
		return winner.Dump(), rep
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 {
		t.Errorf("winning programs differ across runs:\n--- run1\n%s\n--- run2\n%s", d1, d2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Errorf("reports differ across runs:\nrun1: %+v\nrun2: %+v", r1, r2)
	}
}

// TestSearchSkipsUnsolvableBase: a base program that cannot place must pass
// through untouched with the condition noted, not fail the compile.
func TestSearchSkipsUnsolvableBase(t *testing.T) {
	base := frontIR(t, nestedIfSrc)
	net := topo.FatTreePod(4, asic.Tofino32Q)
	scopes := mustScopes(t, "acl: [ ToR1 | PER-SW | - ]", net)
	// Point the algorithm at a switch that does not exist in the scope map's
	// paths by emptying the resolution — the solve must fail cleanly.
	scopes["acl"].Switches = nil
	scopes["acl"].Paths = nil
	winner, rep := Search(context.Background(), base, net, scopes, searchOpts())
	if winner != base {
		t.Error("unsolvable base was not passed through")
	}
	if rep.Note == "" {
		t.Error("report carries no note about the skipped search")
	}
}

// TestLazyPathsCertifyLikeEager: a MULTI-SW scope resolved lazily leaves
// Paths nil, and certification still walks the same flow paths as an eager
// resolution of it, not one single-switch hop per host.
func TestLazyPathsCertifyLikeEager(t *testing.T) {
	base := frontIR(t, nestedIfSrc)
	net := topo.FatTreePod(4, asic.Tofino32Q)
	sp, err := scope.Parse("acl: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]")
	if err != nil {
		t.Fatal(err)
	}
	certified := map[bool][][]string{}
	for _, lazy := range []bool{false, true} {
		scopes, err := sp.ResolveWith(net, scope.ResolveOpts{LazyPaths: lazy})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := encode.Solve(&encode.Input{IR: base, Net: net, Scopes: scopes}, encode.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		certified[lazy] = pathsFor(plan, "acl", 4)
	}
	if len(certified[false]) == 0 || len(certified[false][0]) < 2 {
		t.Fatalf("eager certification paths %v are not flow paths", certified[false])
	}
	if !reflect.DeepEqual(certified[true], certified[false]) {
		t.Errorf("lazy compile certifies over %v, eager over %v", certified[true], certified[false])
	}
}

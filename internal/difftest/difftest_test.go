package difftest

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lyra"
	"lyra/internal/asic"
	"lyra/internal/lang/parser"
	"lyra/internal/topo"
)

func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 42, CaseSeed(7, 3)} {
		a, b := Generate(seed), Generate(seed)
		if a.Source() != b.Source() {
			t.Fatalf("seed %d: program not deterministic", seed)
		}
		if a.ScopeText() != b.ScopeText() {
			t.Fatalf("seed %d: scopes not deterministic", seed)
		}
		if !reflect.DeepEqual(a.Topo, b.Topo) {
			t.Fatalf("seed %d: topology not deterministic", seed)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) || !reflect.DeepEqual(a.Entries, b.Entries) {
			t.Fatalf("seed %d: trace not deterministic", seed)
		}
	}
}

func TestCaseSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for i := 0; i < 100; i++ {
		s := CaseSeed(1, i)
		if seen[s] {
			t.Fatalf("duplicate case seed at index %d", i)
		}
		seen[s] = true
	}
	if CaseSeed(1, 0) == CaseSeed(2, 0) {
		t.Fatal("campaign seed does not affect case seeds")
	}
}

func TestClassNamesRoundTrip(t *testing.T) {
	for c := Equivalent; c <= GeneratorError; c++ {
		got, ok := ClassByName(c.String())
		if !ok || got != c {
			t.Errorf("class %v does not round-trip through %q", c, c.String())
		}
	}
	if _, ok := ClassByName("nonsense"); ok {
		t.Error("ClassByName accepted an unknown name")
	}
}

// TestCampaignAllExplained is the subsystem's core claim on itself: every
// generated case either compiles to an equivalent deployment across
// dialects and parallelism levels, or is consistently infeasible. The CI
// smoke job and `lyra-fuzz -n 500 -seed 1` run the same check at larger n.
func TestCampaignAllExplained(t *testing.T) {
	sum := Run(40, 1, Options{SkipShrink: true}, nil)
	if sum.Cases != 40 {
		t.Fatalf("ran %d cases, want 40", sum.Cases)
	}
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — oracle coverage is vacuous")
	}
}

// TestCampaignIncrementalOracle runs the incremental-vs-oneshot check:
// every compiling case is recompiled through the identity scenario on its
// cached persistent solver, and the incremental result must be
// byte-identical to the one-shot compile; then through one fault drawn from
// the case seed, and that result must be byte-identical to a from-scratch
// compile of the mutated topology.
func TestCampaignIncrementalOracle(t *testing.T) {
	sum := Run(25, 1, Options{SkipShrink: true, Incremental: true}, nil)
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases under the incremental oracle", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — incremental coverage is vacuous")
	}
}

// TestCampaignOptimizeOracle runs the rewrite-search cross-check: every
// compiling case is recompiled under the certified rewrite search, and the
// optimized deployment must keep the ORIGINAL program's reference
// semantics on the case trace — an equivalence the oracle derives
// independently of the search's internal certification.
func TestCampaignOptimizeOracle(t *testing.T) {
	sum := Run(20, 1, Options{SkipShrink: true, Optimize: true}, nil)
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases under the optimize oracle", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — optimize coverage is vacuous")
	}
}

// TestCampaignScaleOracle is the datacenter-scale acceptance campaign: 150
// generated cases, each compiling case additionally recompiled with
// symmetry dedup disabled, which must land byte-identical to the
// default compile — same switch sets, artifacts, and plan fingerprints —
// so zero unexplained cases certifies the scale machinery plan-neutral
// across the campaign.
func TestCampaignScaleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("150-case scale campaign skipped in -short mode")
	}
	sum := Run(150, 11, Options{SkipShrink: true, Scale: true}, nil)
	if sum.Cases != 150 {
		t.Fatalf("ran %d cases, want 150", sum.Cases)
	}
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases under the scale oracle", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — scale coverage is vacuous")
	}
}

// TestEngineCampaign200 is the execution-tier acceptance campaign: 200
// generated cases executed through the oracle, which runs every deployed
// path on the compiled backend and cross-checks the interpreter packet by
// packet (any compiled/interpreter mismatch classifies as Crash, which is
// never explained). Zero unexplained cases therefore certifies the
// compiled tier byte-identical to the interpreter across the campaign.
func TestEngineCampaign200(t *testing.T) {
	if testing.Short() {
		t.Skip("200-case campaign skipped in -short mode")
	}
	sum := Run(200, 7, Options{SkipShrink: true}, nil)
	if sum.Cases != 200 {
		t.Fatalf("ran %d cases, want 200", sum.Cases)
	}
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases in the execution campaign", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — execution coverage is vacuous")
	}
}

// TestSeededBugCaughtAndShrunk: injecting a deliberate backend bug must
// surface as unexplained failures, and the shrinker must minimize at least
// one of them while preserving its failure class.
func TestSeededBugCaughtAndShrunk(t *testing.T) {
	sum := Run(10, 1, Options{Mutation: "drop-last-instr"}, nil)
	if len(sum.Failures) == 0 {
		t.Fatal("seeded backend bug went undetected across 10 cases")
	}
	shrunkSeen := false
	for _, f := range sum.Failures {
		if f.Outcome.Class.Explained() {
			t.Errorf("failure list contains explained outcome %s", f.Outcome)
		}
		if f.Shrunk == nil {
			continue
		}
		shrunkSeen = true
		if f.ShrunkOutcome.Class != f.Outcome.Class {
			t.Errorf("case %d: shrink changed class %s -> %s",
				f.Index, f.Outcome.Class, f.ShrunkOutcome.Class)
		}
		if o, s := caseWeight(f.Case), caseWeight(f.Shrunk); s > o {
			t.Errorf("case %d: shrunk case is larger (%d > %d)", f.Index, s, o)
		}
	}
	if !shrunkSeen {
		t.Fatal("no failure was shrunk")
	}
}

// symmetricCase is a sharded load balancer, in the generator's packet
// vocabulary, on a uniform two-pod fat tree with one wildcard MULTI-SW scope:
// the pods are renamings of each other, so every programmed switch has a twin
// of the same plan shape, and the connection table splits along each
// Agg->ToR path (bridged hit signal, gated downstream shard).
func symmetricCase(t *testing.T) *Case {
	t.Helper()
	prog, err := parser.Parse("symmetric.lyra", []byte(`
header_type base_t { bit[16] kind; bit[32] a; bit[32] b; bit[32] c; bit[32] out0; }
header base_t base;
pipeline[MAIN]{alg0};
algorithm alg0 {
  extern dict<bit[32] k, bit[32] v>[4000000] conn;
  extern dict<bit[32] k, bit[32] v>[1000000] vip;
  bit[32] h;
  h = base.a + base.b;
  if (h in conn) {
    base.out0 = conn[h];
  } else {
    if (base.c in vip) {
      base.out0 = vip[base.c];
    }
  }
}
`))
	if err != nil {
		t.Fatal(err)
	}
	net := topo.MultiPodFatTree(2, 4, func(string, int) *asic.Model { return asic.Tofino32Q })
	c := &Case{Prog: prog, Topo: SpecOf(net), Entries: map[string][]Entry{}}
	c.Scopes = []ScopeSpec{{Alg: "alg0", MultiSw: true,
		Region: []string{"ToR*", "Agg*"}, From: []string{"Agg*"}, To: []string{"ToR*"}}}
	for i := uint64(0); i < 8; i++ {
		c.Trace = append(c.Trace, TracePacket{Valid: []string{"base"}, Fields: map[string]uint64{
			"base.kind": 0x10, "base.a": i, "base.b": 2 * i, "base.c": 100 + i}})
		if i%2 == 0 {
			c.Entries["conn"] = append(c.Entries["conn"], Entry{Key: 3 * i, Value: 1000 + i})
		}
		c.Entries["vip"] = append(c.Entries["vip"], Entry{Key: 100 + i, Value: 2000 + i})
	}
	return c
}

// TestSeededBugsCaughtOnSymmetricFabric: translation and verification run
// once per plan shape, so a fabric of same-shape twins is where a seeded
// backend bug could hide behind a clean twin. Every mutation must still
// surface as an unexplained outcome there.
func TestSeededBugsCaughtOnSymmetricFabric(t *testing.T) {
	c := symmetricCase(t)
	net, err := c.Network()
	if err != nil {
		t.Fatal(err)
	}
	res, err := lyra.New().Compile(context.Background(), c.Source(), c.ScopeText(), net)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	bodies := map[string]bool{}
	for _, a := range res.Artifacts {
		bodies[a.Code[strings.IndexByte(a.Code, '\n'):]] = true
	}
	if len(bodies)*2 > len(res.Artifacts) {
		t.Fatalf("%d distinct programs on %d switches — not every switch has a same-shape twin",
			len(bodies), len(res.Artifacts))
	}
	if out := NewOracle(Options{}).Check(c); out.Class != Equivalent {
		t.Fatalf("clean case: %s", out)
	}
	for _, name := range MutationNames() {
		if out := NewOracle(Options{Mutation: name}).Check(c); out.Class.Explained() {
			t.Errorf("%s went undetected on the symmetric fabric: %s", name, out)
		}
	}
}

// caseWeight is a coarse size metric: statements + switches + packets.
func caseWeight(c *Case) int {
	n := len(c.Topo.Switches) + len(c.Trace)
	for _, a := range c.Prog.Algorithms {
		n += countStmts(a.Body)
	}
	return n
}

func TestMutationNamesResolve(t *testing.T) {
	for _, name := range MutationNames() {
		if fn, ok := MutationByName(name); !ok || fn == nil {
			t.Errorf("mutation %q does not resolve", name)
		}
	}
	if fn, ok := MutationByName(""); !ok || fn != nil {
		t.Error("empty mutation name must resolve to no-op")
	}
	if _, ok := MutationByName("no-such-bug"); ok {
		t.Error("unknown mutation name accepted")
	}
}

func TestBundleRoundTrip(t *testing.T) {
	c := Generate(CaseSeed(1, 5))
	meta := BundleMeta{
		Seed: c.Seed, CaseIndex: 5, CampaignSeed: 1, GitSHA: "deadbeef",
		Class: Equivalent.String(), CreatedBy: "difftest_test",
	}
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := WriteBundle(dir, c, meta); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"case.lyra", "case.scope", "topo.txt", "trace.txt", "meta.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("bundle missing %s: %v", name, err)
		}
	}
	got, gotMeta, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source() != c.Source() {
		t.Errorf("program did not round-trip:\n%s\nvs\n%s", got.Source(), c.Source())
	}
	if got.ScopeText() != c.ScopeText() {
		t.Errorf("scopes did not round-trip: %q vs %q", got.ScopeText(), c.ScopeText())
	}
	if !reflect.DeepEqual(got.Topo, c.Topo) {
		t.Error("topology did not round-trip")
	}
	if !reflect.DeepEqual(got.Trace, c.Trace) {
		t.Errorf("trace did not round-trip: %#v vs %#v", got.Trace, c.Trace)
	}
	if !reflect.DeepEqual(got.Entries, c.Entries) {
		t.Error("entries did not round-trip")
	}
	if *gotMeta != meta {
		t.Errorf("meta did not round-trip: %+v vs %+v", *gotMeta, meta)
	}
}

// corpusDir is the checked-in regression corpus (repo-root testdata).
const corpusDir = "../../testdata/difftest/corpus"

// TestCorpusReplay replays every checked-in bundle and requires the oracle
// to reproduce the recorded class — interesting seeds become deterministic
// regression tests. Regenerate with:
//
//	LYRA_WRITE_CORPUS=1 go test ./internal/difftest -run TestWriteCorpus
func TestCorpusReplay(t *testing.T) {
	entries, err := os.ReadDir(corpusDir)
	if err != nil {
		t.Fatalf("reading corpus: %v (regenerate with LYRA_WRITE_CORPUS=1)", err)
	}
	if len(entries) == 0 {
		t.Fatal("corpus is empty")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			// Incremental adds the identity and seeded-fault recompile legs
			// on top of the plain check.
			out, meta, err := Replay(filepath.Join(corpusDir, e.Name()), Options{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.Class.String() != meta.Class {
				t.Fatalf("replay verdict %s, bundle recorded %s (detail: %s)",
					out.Class, meta.Class, out.Detail)
			}
		})
	}
}

// TestWriteCorpus regenerates the checked-in corpus deterministically from
// campaign seed 1. Gated so normal test runs never rewrite testdata.
func TestWriteCorpus(t *testing.T) {
	if os.Getenv("LYRA_WRITE_CORPUS") == "" {
		t.Skip("set LYRA_WRITE_CORPUS=1 to regenerate the corpus")
	}
	if err := os.RemoveAll(corpusDir); err != nil {
		t.Fatal(err)
	}
	write := func(name string, c *Case, idx int, class Class, mutation string) {
		meta := BundleMeta{
			Seed: c.Seed, CaseIndex: idx, CampaignSeed: 1, GitSHA: "corpus",
			Class: class.String(), Mutation: mutation, CreatedBy: "TestWriteCorpus",
		}
		if err := WriteBundle(filepath.Join(corpusDir, name), c, meta); err != nil {
			t.Fatal(err)
		}
	}
	// One equivalent multi-algorithm case and one infeasible case, straight
	// from the campaign stream.
	var haveEq, haveInf bool
	oracle := NewOracle(Options{})
	for i := 0; i < 200 && !(haveEq && haveInf); i++ {
		c := Generate(CaseSeed(1, i))
		out := oracle.Check(c)
		switch {
		case !haveEq && out.Class == Equivalent && len(c.Prog.Algorithms) >= 2:
			write(fmt.Sprintf("equivalent-multialg-%03d", i), c, i, Equivalent, "")
			haveEq = true
		case !haveInf && out.Class == Infeasible:
			write(fmt.Sprintf("infeasible-%03d", i), c, i, Infeasible, "")
			haveInf = true
		}
	}
	if !haveEq || !haveInf {
		t.Fatal("campaign stream did not yield both corpus classes")
	}
	// One shrunk divergence under the seeded backend bug: replaying the
	// bundle re-injects the mutation and must reproduce the divergence.
	sum := Run(10, 1, Options{Mutation: "drop-last-instr"}, nil)
	for _, f := range sum.Failures {
		if f.Shrunk != nil && f.ShrunkOutcome.Class == OutputDivergence {
			write(fmt.Sprintf("mutation-divergence-%03d", f.Index),
				f.Shrunk, f.Index, OutputDivergence, "drop-last-instr")
			return
		}
	}
	t.Fatal("mutation campaign yielded no shrunk divergence")
}

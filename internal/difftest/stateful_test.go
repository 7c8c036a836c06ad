package difftest

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lyra/internal/lang/ast"
)

func chunkSum(chunks []int) int {
	n := 0
	for _, c := range chunks {
		n += c
	}
	return n
}

func TestStatefulGenerateDeterministic(t *testing.T) {
	for _, seed := range []int64{3, 99, CaseSeed(11, 4)} {
		a, b := GenerateStateful(seed), GenerateStateful(seed)
		if a.Source() != b.Source() || a.ScopeText() != b.ScopeText() {
			t.Fatalf("seed %d: stateful program not deterministic", seed)
		}
		if !reflect.DeepEqual(a.Trace, b.Trace) || !reflect.DeepEqual(a.Chunks, b.Chunks) ||
			a.FlowField != b.FlowField || !reflect.DeepEqual(a.Entries, b.Entries) {
			t.Fatalf("seed %d: stateful trace not deterministic", seed)
		}
		if a.FlowField != "base.flow" {
			t.Fatalf("seed %d: FlowField = %q", seed, a.FlowField)
		}
		if got := chunkSum(a.Chunks); got != len(a.Trace) {
			t.Fatalf("seed %d: chunks cover %d of %d packets", seed, got, len(a.Trace))
		}
		if !a.Stateful() {
			t.Fatalf("seed %d: stateful case declares no global state", seed)
		}
		for i, tp := range a.Trace {
			f, ok := tp.Fields["base.flow"]
			if !ok || f >= 16 {
				t.Fatalf("seed %d packet %d: flow %d outside the register index space", seed, i, f)
			}
		}
	}
}

// TestStatefulGenerateExercisesInserts checks the generator actually
// emits guarded data-plane inserts somewhere in the seed stream — the
// construct the streaming oracle exists to certify.
func TestStatefulGenerateExercisesInserts(t *testing.T) {
	inserts := 0
	for i := 0; i < 30 && inserts == 0; i++ {
		c := GenerateStateful(CaseSeed(5, i))
		for _, a := range c.Prog.Algorithms {
			if anyStmt(a.Body, func(s ast.Stmt) bool {
				es, ok := s.(*ast.ExprStmt)
				if !ok {
					return false
				}
				call, ok := es.X.(*ast.Call)
				return ok && call.Name == "insert"
			}) {
				inserts++
			}
		}
	}
	if inserts == 0 {
		t.Fatal("30 stateful cases produced no data-plane insert")
	}
}

// TestStatefulCampaignSmoke always runs: a short flow-keyed campaign in
// which every case also passes the streaming oracle (each executor tier,
// one and three lanes, chunked feeds, against a one-shot replay).
func TestStatefulCampaignSmoke(t *testing.T) {
	sum := Run(10, 3, Options{SkipShrink: true, Stateful: true}, nil)
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained stateful cases", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("stateful campaign produced no equivalent cases — streaming coverage is vacuous")
	}
}

// TestStatefulCampaign200 is the streaming acceptance campaign: 200
// flow-keyed stateful cases, each replayed through OpenStream on the
// interpreter, engine, and compiled tiers at one and three lanes with the
// trace fed in the case's chunk partition, packet-by-packet-identical to
// a sequential one-shot replay. Zero unexplained cases certifies the
// streaming path (lane affinity, chunked drains, data-plane inserts
// crossing batch boundaries) equivalent to one-shot execution.
func TestStatefulCampaign200(t *testing.T) {
	if testing.Short() {
		t.Skip("200-case stateful campaign skipped in -short mode")
	}
	sum := Run(200, 11, Options{SkipShrink: true, Stateful: true}, nil)
	if sum.Cases != 200 {
		t.Fatalf("ran %d cases, want 200", sum.Cases)
	}
	if n := sum.Unexplained(); n != 0 {
		for _, f := range sum.Failures {
			t.Errorf("case %d (seed %d): %s", f.Index, f.Seed, f.Outcome)
		}
		t.Fatalf("%d unexplained cases in the stateful campaign", n)
	}
	if sum.Counts[Equivalent] == 0 {
		t.Fatal("campaign produced no equivalent cases — streaming coverage is vacuous")
	}
}

// TestStatefulSeededBugCaughtAndShrunk: a seeded backend bug must surface
// through the stateful campaign too, and shrinking must preserve both the
// failure class and the flow-trace invariants (FlowField kept, chunks
// summing to the trimmed trace's length).
func TestStatefulSeededBugCaughtAndShrunk(t *testing.T) {
	sum := Run(6, 1, Options{Mutation: "drop-last-instr", Stateful: true}, nil)
	if len(sum.Failures) == 0 {
		t.Fatal("seeded backend bug went undetected across 6 stateful cases")
	}
	shrunkSeen := false
	for _, f := range sum.Failures {
		if f.Shrunk == nil {
			continue
		}
		shrunkSeen = true
		if f.ShrunkOutcome.Class != f.Outcome.Class {
			t.Errorf("case %d: shrink changed class %s -> %s",
				f.Index, f.Outcome.Class, f.ShrunkOutcome.Class)
		}
		if f.Shrunk.FlowField != f.Case.FlowField {
			t.Errorf("case %d: shrink dropped FlowField %q", f.Index, f.Case.FlowField)
		}
		if len(f.Shrunk.Chunks) > 0 && chunkSum(f.Shrunk.Chunks) != len(f.Shrunk.Trace) {
			t.Errorf("case %d: shrunk chunks cover %d of %d packets",
				f.Index, chunkSum(f.Shrunk.Chunks), len(f.Shrunk.Trace))
		}
		if o, s := caseWeight(f.Case), caseWeight(f.Shrunk); s > o {
			t.Errorf("case %d: shrunk case is larger (%d > %d)", f.Index, s, o)
		}
	}
	if !shrunkSeen {
		t.Fatal("no stateful failure was shrunk")
	}
}

func TestDropFromChunks(t *testing.T) {
	cases := []struct {
		chunks []int
		i      int
		want   []int
	}{
		{[]int{3, 2, 4}, 0, []int{2, 2, 4}},
		{[]int{3, 2, 4}, 3, []int{3, 1, 4}},
		{[]int{3, 2, 4}, 4, []int{3, 1, 4}},
		{[]int{3, 2, 4}, 8, []int{3, 2, 3}},
		{[]int{1, 1}, 0, []int{1}},
		{[]int{1}, 0, nil},
		{nil, 0, nil},
	}
	for _, c := range cases {
		got := dropFromChunks(append([]int(nil), c.chunks...), c.i)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("dropFromChunks(%v, %d) = %v, want %v", c.chunks, c.i, got, c.want)
		}
	}
}

func TestStatefulBundleRoundTrip(t *testing.T) {
	c := GenerateStateful(CaseSeed(3, 7))
	meta := BundleMeta{
		Seed: c.Seed, CaseIndex: 7, CampaignSeed: 3, GitSHA: "deadbeef",
		Class: Equivalent.String(), CreatedBy: "stateful_test",
	}
	dir := filepath.Join(t.TempDir(), "bundle")
	if err := WriteBundle(dir, c, meta); err != nil {
		t.Fatal(err)
	}
	got, _, err := LoadBundle(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Source() != c.Source() {
		t.Error("program did not round-trip")
	}
	if got.FlowField != c.FlowField {
		t.Errorf("FlowField did not round-trip: %q vs %q", got.FlowField, c.FlowField)
	}
	if !reflect.DeepEqual(got.Chunks, c.Chunks) {
		t.Errorf("Chunks did not round-trip: %v vs %v", got.Chunks, c.Chunks)
	}
	if !reflect.DeepEqual(got.Trace, c.Trace) {
		t.Error("trace did not round-trip")
	}
}

// statefulCorpusDir is the checked-in streaming regression corpus.
const statefulCorpusDir = "../../testdata/difftest/stateful-corpus"

// TestStatefulCorpusReplay replays every checked-in stateful bundle; the
// oracle (including its streaming cross-check, triggered by the bundle's
// flow directive) must reproduce the recorded class. Regenerate with:
//
//	LYRA_WRITE_CORPUS=1 go test ./internal/difftest -run TestWriteStatefulCorpus
func TestStatefulCorpusReplay(t *testing.T) {
	entries, err := os.ReadDir(statefulCorpusDir)
	if err != nil {
		t.Fatalf("reading stateful corpus: %v (regenerate with LYRA_WRITE_CORPUS=1)", err)
	}
	if len(entries) == 0 {
		t.Fatal("stateful corpus is empty")
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			c, meta, err := LoadBundle(filepath.Join(statefulCorpusDir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if c.FlowField == "" {
				t.Fatal("stateful bundle lost its flow directive")
			}
			out, meta2, err := Replay(filepath.Join(statefulCorpusDir, e.Name()), Options{Incremental: true})
			if err != nil {
				t.Fatal(err)
			}
			_ = meta2
			if out.Class.String() != meta.Class {
				t.Fatalf("replay verdict %s, bundle recorded %s (detail: %s)",
					out.Class, meta.Class, out.Detail)
			}
		})
	}
}

// TestWriteStatefulCorpus regenerates the stateful corpus from campaign
// seed 3. Gated so normal test runs never rewrite testdata.
func TestWriteStatefulCorpus(t *testing.T) {
	if os.Getenv("LYRA_WRITE_CORPUS") == "" {
		t.Skip("set LYRA_WRITE_CORPUS=1 to regenerate the stateful corpus")
	}
	if err := os.RemoveAll(statefulCorpusDir); err != nil {
		t.Fatal(err)
	}
	write := func(name string, c *Case, idx int, class Class, mutation string) {
		meta := BundleMeta{
			Seed: c.Seed, CaseIndex: idx, CampaignSeed: 3, GitSHA: "corpus",
			Class: class.String(), Mutation: mutation, CreatedBy: "TestWriteStatefulCorpus",
		}
		if err := WriteBundle(filepath.Join(statefulCorpusDir, name), c, meta); err != nil {
			t.Fatal(err)
		}
	}
	// One equivalent case with a data-plane insert (the streaming oracle's
	// hardest construct) and one infeasible case, from the campaign stream.
	hasInsert := func(c *Case) bool {
		for _, a := range c.Prog.Algorithms {
			if anyStmt(a.Body, func(s ast.Stmt) bool {
				es, ok := s.(*ast.ExprStmt)
				if !ok {
					return false
				}
				call, ok := es.X.(*ast.Call)
				return ok && call.Name == "insert"
			}) {
				return true
			}
		}
		return false
	}
	var haveEq, haveInf bool
	oracle := NewOracle(Options{})
	for i := 0; i < 100 && !(haveEq && haveInf); i++ {
		c := GenerateStateful(CaseSeed(3, i))
		out := oracle.Check(c)
		switch {
		case !haveEq && out.Class == Equivalent && hasInsert(c):
			write(fmt.Sprintf("equivalent-insert-%03d", i), c, i, Equivalent, "")
			haveEq = true
		case !haveInf && out.Class == Infeasible:
			write(fmt.Sprintf("infeasible-%03d", i), c, i, Infeasible, "")
			haveInf = true
		}
	}
	if !haveEq || !haveInf {
		t.Fatal("stateful campaign stream did not yield both corpus classes")
	}
	// One shrunk divergence under a seeded backend bug.
	sum := Run(6, 1, Options{Mutation: "drop-last-instr", Stateful: true}, nil)
	for _, f := range sum.Failures {
		if f.Shrunk != nil && f.ShrunkOutcome.Class == OutputDivergence {
			write(fmt.Sprintf("mutation-divergence-%03d", f.Index),
				f.Shrunk, f.Index, OutputDivergence, "drop-last-instr")
			return
		}
	}
	t.Fatal("stateful mutation campaign yielded no shrunk divergence")
}

package lyra

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/lang/parser"
	"lyra/internal/topo"
)

// planSlice is what a plan says about a set of switches, with every switch
// name passed through a renaming: the hosts of every instruction, each
// switch's tables, bridge exports, chip allocation and shape hash, and every
// extern's shards and shard groups.
type planSlice struct {
	Hosts   map[string][]string
	Tables  map[string][]*encode.PlacedTable
	Bridges map[string][]encode.BridgeVar
	Allocs  map[string]*asic.Allocation
	Shapes  map[string]string
	Shards  map[string]map[string]int64
	Groups  map[string]map[string][]encode.Shard
}

// sliceOf returns the slice of res's plan over the switches keep accepts,
// under the names name gives them.
func sliceOf(res *Result, keep func(string) bool, name func(string) string) planSlice {
	p := res.plan
	s := planSlice{
		Hosts: map[string][]string{}, Tables: map[string][]*encode.PlacedTable{}, Bridges: map[string][]encode.BridgeVar{},
		Allocs: map[string]*asic.Allocation{}, Shapes: map[string]string{},
		Shards: map[string]map[string]int64{}, Groups: map[string]map[string][]encode.Shard{},
	}
	p.EachHost(func(sw string, instrs []*ir.Instr) {
		if keep(sw) {
			for _, in := range instrs {
				id := fmt.Sprintf("%s/%d", in.Alg, in.ID)
				s.Hosts[id] = append(s.Hosts[id], name(sw))
			}
		}
	})
	for _, hosts := range s.Hosts {
		sort.Strings(hosts)
	}
	for _, a := range p.Input.IR.Algorithms {
		for _, e := range a.Externs {
			for sw, n := range p.ShardsOf(e.Name) {
				if keep(sw) {
					if s.Shards[e.Name] == nil {
						s.Shards[e.Name] = map[string]int64{}
					}
					s.Shards[e.Name][name(sw)] = n
				}
			}
		}
	}
	for sw := range p.Fingerprints() {
		if !keep(sw) {
			continue
		}
		n := name(sw)
		s.Tables[n], s.Bridges[n], s.Allocs[n], s.Shapes[n] = p.TablesOf(sw), p.BridgesOf(sw), p.AllocationOf(sw), p.Shape(sw)
		for _, a := range p.Input.IR.Algorithms {
			for _, e := range a.Externs {
				var group []encode.Shard
				for _, s := range p.ShardGroup(e.Name, sw) {
					group = append(group, encode.Shard{Switch: name(s.Switch), Entries: s.Entries})
				}
				if group == nil {
					continue
				}
				if s.Groups[e.Name] == nil {
					s.Groups[e.Name] = map[string][]encode.Shard{}
				}
				s.Groups[e.Name][n] = group
			}
		}
	}
	return s
}

func everySwitch(string) bool { return true }

func sameName(sw string) string { return sw }

// sameSlice reports every part of two plan slices that differs.
func sameSlice(t *testing.T, label string, got, want planSlice) {
	t.Helper()
	g, w := reflect.ValueOf(got), reflect.ValueOf(want)
	for i := 0; i < g.NumField(); i++ {
		if !reflect.DeepEqual(g.Field(i).Interface(), w.Field(i).Interface()) {
			t.Errorf("%s: %s differ:\n  got  %v\n  want %v", label, g.Type().Field(i).Name, g.Field(i).Interface(), w.Field(i).Interface())
		}
	}
}

// renamedNet rebuilds net with every switch renamed, in the same declaration
// order.
func renamedNet(t *testing.T, net *Network, name func(string) string) *Network {
	t.Helper()
	out := topo.New()
	for _, s := range net.Switches {
		if _, err := out.AddSwitch(name(s.Name), s.Layer, s.ASIC); err != nil {
			t.Fatal(err)
		}
	}
	for _, a := range net.Names() {
		for _, b := range net.Neighbors(a) {
			if a >= b {
				continue
			}
			if err := out.AddLink(name(a), name(b)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestSwitchRenamingMetamorphic: a switch's name is not part of what it is
// given. Prefixing every switch name — in the topology and in the scope
// specification — keeps the names' order, and must give the plan the original
// names give, renamed: hosts per instruction, per-switch tables, allocations,
// bridges and shape hashes, shard entries and shard groups, and program text
// and control-plane stubs that differ in the names alone. A renaming that
// changes the names' order must leave the bridge layout as it was; only the
// layout is compared there, as shard indices still follow the names.
func TestSwitchRenamingMetamorphic(t *testing.T) {
	const prefix = "site_"
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		net  *Network
	}{
		{"mixed chips", mixedPods()},
		{"k=8", uniformPods(4, 8)},
	} {
		c := New()
		want, err := c.Compile(ctx, podLB, podScope, tc.net)
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		scopeText := strings.NewReplacer("ToR*", prefix+"ToR*", "Agg*", prefix+"Agg*").Replace(podScope)
		got, err := c.Compile(ctx, podLB, scopeText, renamedNet(t, tc.net, func(sw string) string { return prefix + sw }))
		if err != nil {
			t.Fatalf("%s: compile of the renamed fabric: %v", tc.name, err)
		}
		slice := sliceOf(want, everySwitch, sameName)
		if len(slice.Groups["conn_table"]) == 0 {
			t.Fatalf("%s: conn_table is not split — the test is vacuous", tc.name)
		}
		sameSlice(t, tc.name, sliceOf(got, everySwitch, func(sw string) string { return strings.TrimPrefix(sw, prefix) }), slice)
		if len(got.Artifacts) != len(want.Artifacts) {
			t.Fatalf("%s: %d switches programmed, %d under the original names", tc.name, len(got.Artifacts), len(want.Artifacts))
		}
		for _, sw := range want.Switches() {
			a, b := got.Artifact(prefix+sw), want.Artifact(sw)
			// The stub pads switch names into a column: compare it word by word.
			if a == nil || strings.ReplaceAll(a.Code, prefix, "") != b.Code ||
				!reflect.DeepEqual(strings.Fields(strings.ReplaceAll(a.ControlPlane, prefix, "")), strings.Fields(b.ControlPlane)) {
				t.Errorf("%s: %s: text differs in more than the switch names", tc.name, sw)
			}
		}
	}

	// The cores, which export int_in's fields, renamed to sort before the
	// pods, which export acl's and nat's.
	c := New()
	net := uniformPods(3, 4)
	want, err := c.Compile(ctx, threeAlgs, threeAlgScope, net)
	if err != nil {
		t.Fatalf("three algorithms: compile: %v", err)
	}
	coresFirst := func(sw string) string {
		if podOf(sw) == 0 {
			return "A_" + sw
		}
		return sw
	}
	got, err := c.Compile(ctx, threeAlgs, strings.Replace(threeAlgScope, "Core*", "A_Core*", 1), renamedNet(t, net, coresFirst))
	if err != nil {
		t.Fatalf("three algorithms: compile of the renamed fabric: %v", err)
	}
	if g, w := layoutFields(got), layoutFields(want); !reflect.DeepEqual(g, w) || len(w) < 3 {
		t.Errorf("three algorithms: the cores renamed first lay the bridge out as %v, the original names as %v; want one layout of three fields or more", g, w)
	}
}

// Two programs whose locals the lowering once confused with names of its
// own: with acc renamed v2, the if's predicate temporary took acc's place
// (and its declared width), and with keep renamed p__i1, the value bump's
// parameter is bound to did. On a packet with ipv4.ttl 64 and ipv4.src_ip 1
// both must set ttl to 65.
const (
	renameTempRepro = `
header_type ipv4_t { bit[8] ttl; bit[8] protocol; bit[32] src_ip; bit[32] dst_ip; }
header ipv4_t ipv4;
pipeline[P]{fix};
algorithm fix {
  bit[8] acc;
  acc = ipv4.ttl;
  if (ipv4.src_ip == 1) {
    ipv4.protocol = 17;
  }
  ipv4.ttl = acc + 1;
}
`
	renameParamRepro = `
header_type ipv4_t { bit[8] ttl; bit[8] protocol; bit[32] src_ip; bit[32] dst_ip; }
header ipv4_t ipv4;
pipeline[P]{fix};
algorithm fix {
  bit[8] keep;
  keep = ipv4.ttl;
  bump(ipv4.src_ip + 1);
  ipv4.ttl = keep + 1;
}
func bump(bit[32] p) {
  ipv4.dst_ip = p;
}
`
	renameReproScope = "fix: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]"
)

// TestIdentifierRenamingMetamorphic: a local variable's name is not part of
// what a program computes. Every local of the corpus programs and of two
// repros is renamed — to v<N>, the shape of the lowering's temporaries, for a
// sweep of N, and to <param>__i<N>, the shape of an inlined parameter — and
// the renamed program, on the reference interpreter and along every deployed
// path on both executors, must give each packet of a sequence what the
// original program gives it there. (Run by run, not against the reference
// alone: a deployed interpreter keeps registers from packet to packet, and
// the reference does not.)
func TestIdentifierRenamingMetamorphic(t *testing.T) {
	ctx := context.Background()
	c := New()
	type program struct {
		name, src, scope string
		paths            [][]string // nil: the paths of the scope
	}
	progs := []program{
		{"v2 repro", renameTempRepro, renameReproScope, nil},
		{"p__i1 repro", renameParamRepro, renameReproScope, nil},
	}
	names, err := filepath.Glob(filepath.Join("testdata", "programs", "*.lyra"))
	if err != nil || len(names) == 0 {
		t.Fatalf("corpus: %v, %d programs", err, len(names))
	}
	for _, file := range names {
		name := strings.TrimSuffix(filepath.Base(file), ".lyra")
		src := loadProgram(t, name)
		progs = append(progs, program{name, src, perSwitchScope(t, src, "ToR1"), [][]string{{"ToR1"}}})
	}

	// The repro renamed as reported: ttl 64 must become 65.
	for _, tc := range []struct{ src, from, to string }{
		{renameTempRepro, "acc", "v2"},
		{renameParamRepro, "keep", "p__i1"},
	} {
		res, err := c.Compile(ctx, renameLocals(t, tc.src, func(string, int) string { return tc.to }), renameReproScope, Testbed())
		if err != nil {
			t.Fatalf("%s renamed %s: compile: %v", tc.from, tc.to, err)
		}
		pkt := NewPacket()
		pkt.Valid["ipv4"] = true
		pkt.Fields["ipv4.ttl"], pkt.Fields["ipv4.src_ip"] = 64, 1
		for _, out := range runEverywhere(t, res, nil, pkt) {
			if got := out.Fields["ipv4.ttl"]; got != 65 {
				t.Errorf("%s renamed %s: ttl 64 became %d, want 65", tc.from, tc.to, got)
			}
		}
	}

	for _, p := range progs {
		want, err := c.Compile(ctx, p.src, p.scope, Testbed())
		if err != nil {
			t.Fatalf("%s: compile: %v", p.name, err)
		}
		pkts := identityPackets(want, 6)
		ref := runEverywhere(t, want, p.paths, pkts...)
		param := firstParam(t, p.src)
		var renamings []func(string, int) string
		for n := 0; n < 24; n++ {
			renamings = append(renamings, func(_ string, i int) string { return fmt.Sprintf("v%d", n+i) })
		}
		for n := 1; param != "" && n <= 3; n++ {
			renamings = append(renamings, func(_ string, i int) string { return fmt.Sprintf("%s__i%d", param, n+i) })
		}
		for _, rename := range renamings {
			src := renameLocals(t, p.src, rename)
			got, err := c.Compile(ctx, src, p.scope, Testbed())
			if err != nil {
				t.Fatalf("%s renamed %s...: compile: %v", p.name, rename("", 0), err)
			}
			outs := runEverywhere(t, got, p.paths, pkts...)
			for k, out := range outs {
				if w := ref[k]; out.Summary() != w.Summary() {
					t.Errorf("%s with locals renamed %s...: run %d, packet %d gives\n  %s\nwant\n  %s", p.name, rename("", 0), k/len(pkts), k%len(pkts), out.Summary(), w.Summary())
					break
				}
			}
		}
	}
}

// renameLocals renames every local variable of src — declared or implicit,
// of an algorithm or a function, parameters aside — to rename(name, i), i
// its rank by name, and renders the program again.
func renameLocals(t *testing.T, src string, rename func(name string, i int) string) string {
	t.Helper()
	prog, err := parser.Parse("prog.lyra", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	notVar := map[string]bool{}
	for _, h := range prog.Instances {
		notVar[h.Name] = true
	}
	for _, pk := range prog.Packets {
		notVar[pk.Name] = true
	}
	var tables func([]ast.Stmt)
	tables = func(body []ast.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.ExternDecl:
				notVar[st.Name] = true
			case *ast.VarDecl:
				if st.Global {
					notVar[st.Name] = true
				}
			case *ast.If:
				tables(st.Then)
				tables(st.Else)
			}
		}
	}
	for _, a := range prog.Algorithms {
		tables(a.Body)
	}
	for _, f := range prog.Funcs {
		tables(f.Body)
	}
	// Pass 1 collects the locals, pass 2 renames them; params shadow.
	locals := map[string]bool{}
	to := map[string]string{}
	var params map[string]bool
	ident := func(name *string) {
		if notVar[*name] || params[*name] {
			return
		}
		if to == nil {
			locals[*name] = true
		} else if n, ok := to[*name]; ok {
			*name = n
		}
	}
	var expr func(ast.Expr)
	expr = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.Ident:
			ident(&x.Name)
		case *ast.Index:
			expr(x.Index)
		case *ast.Binary:
			expr(x.X)
			expr(x.Y)
		case *ast.Unary:
			expr(x.X)
		case *ast.InExpr:
			expr(x.Key)
		case *ast.Call:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
	var stmts func([]ast.Stmt)
	stmts = func(body []ast.Stmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *ast.VarDecl:
				if !st.Global {
					ident(&st.Name)
				}
				if st.Init != nil {
					expr(st.Init)
				}
			case *ast.Assign:
				expr(st.LHS)
				expr(st.RHS)
			case *ast.If:
				expr(st.Cond)
				stmts(st.Then)
				stmts(st.Else)
			case *ast.ExprStmt:
				expr(st.X)
			}
		}
	}
	walk := func() {
		for _, a := range prog.Algorithms {
			params = nil
			stmts(a.Body)
		}
		for _, f := range prog.Funcs {
			params = map[string]bool{}
			for _, p := range f.Params {
				params[p.Name] = true
			}
			stmts(f.Body)
		}
	}
	to = nil
	walk()
	sorted := make([]string, 0, len(locals))
	for name := range locals {
		sorted = append(sorted, name)
	}
	sort.Strings(sorted)
	to = map[string]string{}
	for i, name := range sorted {
		to[name] = rename(name, i)
		if notVar[to[name]] {
			t.Fatalf("renaming %s to %s collides with a header or table", name, to[name])
		}
	}
	walk()
	return ast.Format(prog)
}

// firstParam returns the name of the first parameter of src's functions, or
// "".
func firstParam(t *testing.T, src string) string {
	t.Helper()
	prog, err := parser.Parse("prog.lyra", []byte(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if len(f.Params) > 0 {
			return f.Params[0].Name
		}
	}
	return ""
}

// identityPackets returns n seeded packets with every header of res's
// program valid and every field drawn at random, the low values 0 and 1
// likelier so that equality tests take both arms.
func identityPackets(res *Result, n int) []*Packet {
	rng := rand.New(rand.NewSource(int64(n)))
	pkts := make([]*Packet, n)
	for i := range pkts {
		pkt := NewPacket()
		for hdr := range res.irp.HeaderBits {
			pkt.Valid[hdr] = true
		}
		for _, f := range res.irp.SortedFields() {
			v := rng.Uint64()
			if rng.Intn(2) == 0 {
				v = uint64(rng.Intn(2))
			}
			if f.Bits < 64 {
				v &= 1<<f.Bits - 1
			}
			pkt.Fields[f.Hdr+"."+f.Name] = v
		}
		pkts[i] = pkt
	}
	return pkts
}

// runEverywhere runs the packets, in order, on the reference interpreter and
// then along each path (the scope's flow paths when paths is nil) with the
// interpreter and the compiled executor, each run from empty tables and
// registers, and returns the outputs in that order: one per packet and run.
func runEverywhere(t *testing.T, res *Result, paths [][]string, pkts ...*Packet) []*Packet {
	t.Helper()
	if paths == nil {
		for _, alg := range res.irp.Algorithms {
			paths = append(paths, res.FlowPaths(alg.Name)...)
		}
		if len(paths) == 0 {
			t.Fatal("no flow paths: the comparison is vacuous")
		}
	}
	type run func(*Simulation, *Packet) (*Packet, error)
	runs := []run{func(sim *Simulation, pkt *Packet) (*Packet, error) { return sim.RunReference(&SimContext{}, pkt) }}
	for _, path := range paths {
		runs = append(runs,
			func(sim *Simulation, pkt *Packet) (*Packet, error) { return sim.RunPath(path, &SimContext{}, pkt) },
			func(sim *Simulation, pkt *Packet) (*Packet, error) {
				return sim.RunPathCompiled(path, &SimContext{}, pkt)
			})
	}
	var outs []*Packet
	for _, r := range runs {
		sim, err := res.Simulate(NewTables())
		if err != nil {
			t.Fatal(err)
		}
		for _, pkt := range pkts {
			out, err := r(sim, pkt)
			if err != nil {
				t.Fatal(err)
			}
			outs = append(outs, out)
		}
	}
	return outs
}

// TestPodPermutationMetamorphic: four pods with four different chip mixes,
// then the same fabric with the mixes handed to the pods in another order.
// Pods are independent, so each pod's slice of the plan must be, switch names
// aside, the slice of the pod whose mix it now has.
func TestPodPermutationMetamorphic(t *testing.T) {
	const pods, k = 4, 4
	mixes := [pods]func(layer string) *asic.Model{
		func(string) *asic.Model { return asic.Tofino32Q },
		func(layer string) *asic.Model {
			if layer == "Agg" {
				return asic.Trident4
			}
			return asic.Tofino32Q
		},
		func(layer string) *asic.Model {
			if layer == "ToR" {
				return asic.Tofino64Q
			}
			return asic.Tofino32Q
		},
		func(layer string) *asic.Model {
			if layer == "Agg" {
				return asic.Scale(asic.Tofino32Q, 1, 0.8, 1)
			}
			return asic.Tofino32Q
		},
	}
	// fabric gives pod p the mix perm[p-1]; MultiPodFatTree numbers each pod's
	// k ToRs and Aggs consecutively, then the cores.
	fabric := func(perm [pods]int) *Network {
		return topo.MultiPodFatTree(pods, k, func(layer string, idx int) *asic.Model {
			if layer == "Core" {
				return asic.Tofino32Q
			}
			return mixes[perm[idx/k]](layer)
		})
	}
	ctx := context.Background()
	c := New()
	want, err := c.Compile(ctx, podLB, podScope, fabric([pods]int{0, 1, 2, 3}))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if want.plan.Classes != pods {
		t.Fatalf("%d symmetry classes, want one per pod — the test is vacuous", want.plan.Classes)
	}
	inPod := func(n int) func(string) bool { return func(sw string) bool { return podOf(sw) == n } }
	for _, perm := range [][pods]int{{1, 0, 2, 3}, {2, 3, 0, 1}, {3, 2, 1, 0}} {
		got, err := c.Compile(ctx, podLB, podScope, fabric(perm))
		if err != nil {
			t.Fatalf("perm %v: compile: %v", perm, err)
		}
		for p := 1; p <= pods; p++ {
			q := perm[p-1] + 1 // the pod of the original fabric with p's mix
			toQ := strings.NewReplacer(fmt.Sprintf("ToR%d_", p), fmt.Sprintf("ToR%d_", q), fmt.Sprintf("Agg%d_", p), fmt.Sprintf("Agg%d_", q))
			sameSlice(t, fmt.Sprintf("perm %v, pod %d", perm, p), sliceOf(got, inPod(p), toQ.Replace), sliceOf(want, inPod(q), sameName))
		}
	}
}

// exampleConst reads a raw-string constant, such as the Lyra `program` or
// its `scopeSpec`, out of an example's main.go.
func exampleConst(t *testing.T, example, name string) string {
	t.Helper()
	path := filepath.Join("examples", example, "main.go")
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(text), "const "+name+" = `")
	src, _, closed := strings.Cut(rest, "`")
	if !ok || !closed {
		t.Fatalf("%s has no %s constant", path, name)
	}
	return src
}

// scopeLines returns the algorithm lines of a scope specification, without
// blank and comment lines.
func scopeLines(spec string) []string {
	var lines []string
	for _, l := range strings.Split(spec, "\n") {
		if l = strings.TrimSpace(l); l != "" && !strings.HasPrefix(l, "#") {
			lines = append(lines, l)
		}
	}
	return lines
}

// lineOrders returns six seeded orders of n lines, none of them the given
// order; every case of the test below has more than three lines.
func lineOrders(n int) [][]int {
	rng := rand.New(rand.NewSource(int64(n)))
	var orders [][]int
	for len(orders) < 6 {
		if o := rng.Perm(n); !slices.IsSorted(o) {
			orders = append(orders, o)
		}
	}
	return orders
}

// TestScopeLineOrderMetamorphic: the order of a scope specification's lines
// is not part of its meaning. Multi-algorithm programs compiled with their
// scope lines in six other seeded orders must give byte-identical
// artifacts, fingerprints and reports: the composition service chain one
// switch per algorithm, and Figure 7 — examples/intlb's program and scope,
// three INT lines plus the load balancer over pod 2 — on the testbed.
func TestScopeLineOrderMetamorphic(t *testing.T) {
	ctx := context.Background()
	c := New()
	for _, tc := range []struct {
		name, src string
		lines     []string
	}{
		{"composition", loadProgram(t, "composition"), scopeLines(compositionScopes)},
		{"intlb", exampleConst(t, "intlb", "program"), scopeLines(exampleConst(t, "intlb", "scopeSpec"))},
	} {
		want, err := c.Compile(ctx, tc.src, strings.Join(tc.lines, "\n"), Testbed())
		if err != nil {
			t.Fatalf("%s: compile: %v", tc.name, err)
		}
		if len(tc.lines) < 4 || len(want.Artifacts) == 0 {
			t.Fatalf("%s: %d scope lines, %d switches programmed: the test is vacuous", tc.name, len(tc.lines), len(want.Artifacts))
		}
		for _, order := range lineOrders(len(tc.lines)) {
			lines := make([]string, len(order))
			for i, j := range order {
				lines[i] = tc.lines[j]
			}
			got, err := c.Compile(ctx, tc.src, strings.Join(lines, "\n"), Testbed())
			if err != nil {
				t.Fatalf("%s %v: compile: %v", tc.name, order, err)
			}
			if !reflect.DeepEqual(got.Switches(), want.Switches()) {
				t.Fatalf("%s %v: programmed switches %v, want %v", tc.name, order, got.Switches(), want.Switches())
			}
			for _, sw := range want.Switches() {
				a, b := got.Artifact(sw), want.Artifact(sw)
				if a.Code != b.Code || a.ControlPlane != b.ControlPlane || a.Dialect != b.Dialect ||
					[5]int{a.Tables, a.Actions, a.Registers, a.LoC, a.LogicLoC} != [5]int{b.Tables, b.Actions, b.Registers, b.LoC, b.LogicLoC} {
					t.Errorf("%s %v: %s: artifact depends on the scope lines' order", tc.name, order, sw)
				}
			}
			if !reflect.DeepEqual(got.Fingerprints, want.Fingerprints) || got.ArtifactFingerprint() != want.ArtifactFingerprint() {
				t.Errorf("%s %v: fingerprints depend on the scope lines' order", tc.name, order)
			}
			if !reflect.DeepEqual(got.Reports, want.Reports) {
				t.Errorf("%s %v: reports depend on the scope lines' order", tc.name, order)
			}
		}
	}
}

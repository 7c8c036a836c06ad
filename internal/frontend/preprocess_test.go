package frontend

import (
	"strings"
	"testing"

	"lyra/internal/ir"
	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
)

func lower(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := parser.Parse("test.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := checker.Check(prog); err != nil {
		t.Fatalf("check: %v", err)
	}
	irp, err := Preprocess(prog)
	if err != nil {
		t.Fatalf("preprocess: %v", err)
	}
	Analyze(irp)
	return irp
}

// TestFigure8 reproduces the paper's Figure 8: function expansion, branch
// removal, single-operator tuning, and SSA on the int_info example.
func TestFigure8(t *testing.T) {
	src := `
func int_info(bit[32] info) {
  info = 0;
  info = (ig_ts - eg_ts) & 0x0fffffff;
  info = info & (sw_id << 28);
}
algorithm int_in {
  bit[32] ig_ts;
  bit[32] eg_ts;
  bit[32] sw_id;
  ig_ts = get_ingress_timestamp();
  eg_ts = get_egress_timestamp();
  sw_id = get_switch_id();
  int_enable = 1;
  if (int_enable) {
    bit[32] info_out;
    int_info(info_out);
  }
  merged_result = info_out;
}`
	irp := lower(t, src)
	a := irp.Algorithm("int_in")
	if a == nil {
		t.Fatal("missing algorithm")
	}
	dump := irp.Dump()

	// Function inlining: no call remains; the three assignments to info
	// appear (as versions of info_out).
	if strings.Contains(dump, "int_info(") {
		t.Errorf("call not inlined:\n%s", dump)
	}
	// Branch removal: all instructions from the if body carry the guard.
	var guarded []*ir.Instr
	for _, in := range a.Instrs {
		if len(in.Guard) > 0 {
			guarded = append(guarded, in)
		}
	}
	if len(guarded) < 4 {
		t.Fatalf("want >=4 guarded instructions (3 assigns + temps), got %d:\n%s", len(guarded), dump)
	}
	// Single-operator tuning: no instruction has more than one operator —
	// structurally guaranteed; check the subtraction and the mask landed in
	// separate instructions.
	var sawSub, sawAnd, sawShl bool
	for _, in := range a.Instrs {
		if in.Op == ir.IBin {
			switch in.BinOp.String() {
			case "-":
				sawSub = true
			case "&":
				sawAnd = true
			case "<<":
				sawShl = true
			}
		}
	}
	if !sawSub || !sawAnd || !sawShl {
		t.Errorf("flattening missing ops (sub=%v and=%v shl=%v):\n%s", sawSub, sawAnd, sawShl, dump)
	}
	// SSA: versions of info_out increase; no version assigned twice.
	seen := map[string]bool{}
	for _, in := range a.Instrs {
		if v := in.WritesVar(); v != nil {
			key := v.String()
			if seen[key] {
				t.Errorf("SSA violation: %s assigned twice", key)
			}
			seen[key] = true
		}
	}
	if !seen["info_out.1"] || !seen["info_out.2"] || !seen["info_out.3"] {
		t.Errorf("missing info_out versions:\n%s", dump)
	}
	// Divergent write merged with a select.
	var hasSelect bool
	for _, in := range a.Instrs {
		if in.Op == ir.ISelect {
			hasSelect = true
		}
	}
	if !hasSelect {
		t.Errorf("missing select merge for divergent write:\n%s", dump)
	}
	// Width inference: all versions of info_out are 32-bit.
	for _, in := range a.Instrs {
		if v := in.WritesVar(); v != nil && v.Name == "info_out" && v.Bits != 32 {
			t.Errorf("info_out width = %d, want 32", v.Bits)
		}
	}
}

func TestDependencies(t *testing.T) {
	// Mirrors Figure 8(c): v1 = a - b ; x1 = v1 & c ; v2 = d << 2 ;
	// x2 = x1 & v2 gives deps 0->1, 1->3, 2->3.
	src := `
algorithm a {
  bit[32] x;
  x = (p - q) & 0x0fffffff;
  x = x & (r << 2);
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	if len(alg.Instrs) != 4 {
		t.Fatalf("want 4 instrs, got %d:\n%s", len(alg.Instrs), irp.Dump())
	}
	wantDeps := map[int][]int{1: {0}, 3: {1, 2}}
	for id, want := range wantDeps {
		got := alg.Instrs[id].Deps
		if len(got) != len(want) {
			t.Errorf("instr %d deps = %v, want %v", id, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("instr %d deps = %v, want %v", id, got, want)
			}
		}
	}
}

func TestHeaderFieldMemoryOrdering(t *testing.T) {
	src := `
header_type h_t { bit[8] f; }
header h_t h;
algorithm a {
  h.f = 1;
  x = h.f;
  h.f = 2;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	// x = h.f must depend on the first write (RAW); the second write must
	// depend on the read (WAR) and first write (WAW).
	if len(alg.Instrs) != 3 {
		t.Fatalf("want 3 instrs:\n%s", irp.Dump())
	}
	read := alg.Instrs[1]
	if len(read.Deps) != 1 || read.Deps[0] != 0 {
		t.Errorf("read deps = %v, want [0]", read.Deps)
	}
	w2 := alg.Instrs[2]
	if !containsInt(w2.Deps, 0) || !containsInt(w2.Deps, 1) {
		t.Errorf("second write deps = %v, want WAW(0) and WAR(1)", w2.Deps)
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func TestLookupAndMember(t *testing.T) {
	src := `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; }
header ipv4_t ipv4;
algorithm lb {
  extern dict<bit[32] hash, bit[32] ip>[1024] conn_table;
  bit[32] hash;
  hash = crc32_hash(ipv4.srcAddr, ipv4.dstAddr);
  if (hash in conn_table) {
    ipv4.dstAddr = conn_table[hash];
  }
}`
	irp := lower(t, src)
	alg := irp.Algorithm("lb")
	var member, lookup *ir.Instr
	for _, in := range alg.Instrs {
		switch in.Op {
		case ir.IMember:
			member = in
		case ir.ILookup:
			lookup = in
		}
	}
	if member == nil || lookup == nil {
		t.Fatalf("missing member/lookup:\n%s", irp.Dump())
	}
	if member.Table != "conn_table" || lookup.Table != "conn_table" {
		t.Error("wrong table names")
	}
	// The lookup is guarded by the membership predicate.
	if len(lookup.Guard) != 1 || lookup.Guard[0].Neg {
		t.Fatalf("lookup guard = %v", lookup.Guard)
	}
	if lookup.Guard[0].Var != member.WritesVar() {
		t.Error("lookup guard is not the membership result")
	}
	// Width inference: lookup result is the value width (32), membership is
	// a 1-bit predicate; the hash destination is 32 bits.
	if member.WritesVar().Bits != 1 {
		t.Errorf("member width = %d", member.WritesVar().Bits)
	}
	if v := alg.Instrs[0].WritesVar(); v == nil || v.Bits != 32 {
		t.Errorf("hash width wrong: %v", alg.Instrs[0])
	}
	// The lookup writes a header field destination.
	if lookup.Dest.Kind != ir.DestField || lookup.Dest.Field != "dstAddr" {
		t.Errorf("lookup dest = %v", lookup.Dest)
	}
}

func TestGlobalReadWrite(t *testing.T) {
	src := `
algorithm a {
  global bit[32][1024] counter;
  counter[5] = counter[5] + 1;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	if len(alg.Globals) != 1 || alg.Globals[0].Len != 1024 || alg.Globals[0].Bits != 32 {
		t.Fatalf("globals = %+v", alg.Globals)
	}
	var r, w, add bool
	for _, in := range alg.Instrs {
		switch in.Op {
		case ir.IGlobalRead:
			r = true
		case ir.IGlobalWrite:
			w = true
			// write must depend on the read
			if !containsInt(in.Deps, 0) {
				t.Errorf("gwrite deps = %v", in.Deps)
			}
		case ir.IBin:
			add = true
		}
	}
	if !r || !w || !add {
		t.Fatalf("missing ops:\n%s", irp.Dump())
	}
}

func TestNestedIfGuards(t *testing.T) {
	src := `
algorithm a {
  c1 = 1;
  c2 = 1;
  if (c1) {
    if (c2) {
      x = 5;
    }
  }
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	var inner *ir.Instr
	for _, in := range alg.Instrs {
		if v := in.WritesVar(); v != nil && v.Name == "x" && in.Op == ir.IAssign {
			inner = in
		}
	}
	if inner == nil {
		t.Fatalf("missing x assign:\n%s", irp.Dump())
	}
	if len(inner.Guard) != 2 {
		t.Fatalf("inner guard = %v, want conjunction of two predicates", inner.Guard)
	}
}

func TestElseBranchMutuallyExclusiveGuards(t *testing.T) {
	src := `
algorithm a {
  c = 1;
  if (c) { x = 1; } else { x = 2; }
  y = x;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	var thenI, elseI, sel *ir.Instr
	for _, in := range alg.Instrs {
		if v := in.WritesVar(); v != nil && v.Name == "x" && in.Op == ir.IAssign {
			if len(in.Guard) == 1 && !in.Guard[0].Neg {
				thenI = in
			}
			if len(in.Guard) == 1 && in.Guard[0].Neg {
				elseI = in
			}
		}
		if in.Op == ir.ISelect {
			sel = in
		}
	}
	if thenI == nil || elseI == nil {
		t.Fatalf("missing arms:\n%s", irp.Dump())
	}
	if !thenI.Guard.MutuallyExclusive(elseI.Guard) {
		t.Error("arms not mutually exclusive")
	}
	if sel == nil {
		t.Fatalf("missing select merge:\n%s", irp.Dump())
	}
	// y = x reads the merged version.
	last := alg.Instrs[len(alg.Instrs)-1]
	if v := last.WritesVar(); v == nil || v.Name != "y" {
		t.Fatalf("last instr = %v", last)
	}
	if last.Args[0].Var != sel.WritesVar() {
		t.Error("y does not read merged x")
	}
}

func TestInlineTwiceUniqueLocals(t *testing.T) {
	src := `
func f(bit[8] out) {
  bit[8] tmp;
  tmp = 3;
  out = tmp + 1;
}
algorithm a {
  bit[8] r1;
  bit[8] r2;
  f(r1);
  f(r2);
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	// Each inline site gets its own tmp; r1 and r2 both get written.
	bases := map[string]int{}
	for _, in := range alg.Instrs {
		if v := in.WritesVar(); v != nil {
			bases[v.Name]++
		}
	}
	if bases["r1"] != 1 || bases["r2"] != 1 {
		t.Fatalf("out params not aliased: %v\n%s", bases, irp.Dump())
	}
	tmpCount := 0
	for b := range bases {
		if strings.HasPrefix(b, "tmp__i") {
			tmpCount++
		}
	}
	if tmpCount != 2 {
		t.Fatalf("want 2 unique tmp locals, got %d: %v", tmpCount, bases)
	}
}

func TestPacketOpsSerialized(t *testing.T) {
	src := `
algorithm a {
  forward(3);
  drop();
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	if len(alg.Instrs) != 2 {
		t.Fatalf("instrs:\n%s", irp.Dump())
	}
	if !containsInt(alg.Instrs[1].Deps, 0) {
		t.Error("packet ops not ordered")
	}
}

func TestHeaderAddOrdersFieldWrites(t *testing.T) {
	src := `
header_type p_t { bit[8] hop; }
header p_t probe;
algorithm a {
  add_header(probe);
  probe.hop = 0;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	if !containsInt(alg.Instrs[1].Deps, 0) {
		t.Errorf("field write must follow add_header: %v", alg.Instrs[1].Deps)
	}
}

func TestLongestChain(t *testing.T) {
	src := `
algorithm a {
  x = 1;
  y = x + 1;
  z = y + 1;
  w = 5;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	if got := LongestChain(alg); got != 3 {
		t.Errorf("longest chain = %d, want 3", got)
	}
}

func TestExternInsert(t *testing.T) {
	src := `
algorithm a {
  extern dict<bit[32] hash, bit[32] ip>[64] conn;
  bit[32] h;
  h = crc32_hash(x);
  if (h in conn) {
    y = conn[h];
  } else {
    insert(conn, h, 9);
  }
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	var ins *ir.Instr
	for _, in := range alg.Instrs {
		if in.Op == ir.IExternInsert {
			ins = in
		}
	}
	if ins == nil {
		t.Fatalf("missing insert:\n%s", irp.Dump())
	}
	if len(ins.Guard) != 1 || !ins.Guard[0].Neg {
		t.Errorf("insert guard = %v, want negated membership", ins.Guard)
	}
}

func TestUnaryAndLogicalOps(t *testing.T) {
	src := `
algorithm a {
  p = 1;
  q = 0;
  if (!p && q || p == q) { x = 1; }
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	var not, land, lor bool
	for _, in := range alg.Instrs {
		switch {
		case in.Op == ir.INot:
			not = true
		case in.Op == ir.IBin && in.BinOp.String() == "&&":
			land = true
		case in.Op == ir.IBin && in.BinOp.String() == "||":
			lor = true
		}
	}
	if !not || !land || !lor {
		t.Fatalf("missing logical lowering:\n%s", irp.Dump())
	}
}

func TestDeadCodeElimination(t *testing.T) {
	// A divergent write that is never read afterwards produces a select
	// merge during branch removal; DCE must remove it (and only it).
	src := `
header_type h_t { bit[8] f; }
header h_t h;
algorithm a {
  c = 1;
  if (c) { x = 1; } else { x = 2; }
  h.f = 3;
}`
	irp := lower(t, src)
	alg := irp.Algorithm("a")
	for _, in := range alg.Instrs {
		if in.Op == ir.ISelect {
			t.Errorf("dead select survived: %v", in)
		}
	}
	// The user-visible writes remain.
	var xWrites, fieldWrites int
	for _, in := range alg.Instrs {
		if v := in.WritesVar(); v != nil && v.Name == "x" {
			xWrites++
		}
		if in.WritesField() == "h.f" {
			fieldWrites++
		}
	}
	if xWrites != 2 || fieldWrites != 1 {
		t.Errorf("xWrites=%d fieldWrites=%d:\n%s", xWrites, fieldWrites, irp.Dump())
	}
	// IDs are renumbered densely.
	for i, in := range alg.Instrs {
		if in.ID != i {
			t.Errorf("instr %d has ID %d", i, in.ID)
		}
	}
}

func TestLiveSelectSurvivesDCE(t *testing.T) {
	src := `
header_type h_t { bit[8] f; }
header h_t h;
algorithm a {
  c = 1;
  if (c) { x = 1; } else { x = 2; }
  h.f = x;
}`
	irp := lower(t, src)
	found := false
	for _, in := range irp.Algorithm("a").Instrs {
		if in.Op == ir.ISelect {
			found = true
		}
	}
	if !found {
		t.Fatalf("live select was eliminated:\n%s", irp.Dump())
	}
}

// TestPreprocessRejectsUncheckedProgram: the checker rejects these programs
// before lowering ever sees them, but Preprocess is exported and must not
// trust that. Each one comes back as a positioned error, not a panic.
func TestPreprocessRejectsUncheckedProgram(t *testing.T) {
	const head = `
header_type h_t { bit[8] a; }
header h_t h;
pipeline[P]{alg};
algorithm alg {
  extern dict<bit[8] k, bit[8] v>[16] tab;
  bit[8] x;
`
	for body, want := range map[string]string{
		"tab[x] = 1;":      `cannot write extern table "tab"`,
		"x = h.nope;":      "unknown field h.nope",
		"x = nofunc(1);":   `"nofunc" cannot be used in an expression`,
		"x = other[h.a];":  `index into unknown table "other"`,
		"insert(x, 1, 2);": `insert into unknown extern "x"`,
	} {
		prog, err := parser.Parse("test.lyra", []byte(head+"  "+body+"\n}\n"))
		if err != nil {
			t.Fatalf("%s: parse: %v", body, err)
		}
		_, err = Preprocess(prog)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.HasPrefix(err.Error(), "test.lyra:") {
			t.Errorf("%s: err = %v, want a positioned %q", body, err, want)
		}
	}
}

// TestLocalsNamedLikeTheLoweringsOwn: locals named like the lowering's
// temporaries (v<N>) and inlined parameters (<param>__i<N>) are variables of
// their own: the temporary and the parameter get neither their binding nor
// their declared width, and every variable emitted keeps a name and version
// of its own (a local may not redeclare a parameter: the checker refuses it). Analyze numbers the variables densely, in the order
// they are first touched. And a function's local is not captured by a local
// of another function inlined before it under the same name.
func TestLocalsNamedLikeTheLoweringsOwn(t *testing.T) {
	irp := lower(t, `
header_type h_t { bit[8] a; bit[32] b; }
header h_t h;
pipeline[P]{m};
algorithm m {
  bit[8] v2;
  bit[8] p__i1;
  v2 = h.a;
  if (h.b == 1) {
    h.a = 3;
  }
  p__i1 = h.a;
  f(h.b + 1);
  h.a = v2 + p__i1;
}
func f(bit[32] p) {
  p = 5;
  h.b = p;
}
`)
	a := irp.Algorithms[0]
	type key struct {
		name string
		ver  int
	}
	seen := map[key]*ir.Var{}
	for i, v := range a.Vars {
		if v.ID != int32(i) {
			t.Errorf("Vars[%d] is %s with ID %d", i, v, v.ID)
		}
		if w := seen[key{v.Name, v.Ver}]; w != nil && w != v {
			t.Errorf("two variables are called %s", v)
		}
		seen[key{v.Name, v.Ver}] = v
	}
	if pred := a.Instrs[1].Dest.Var; pred.Name != "v2" || pred.Ver != 2 {
		t.Errorf("the if's predicate is %v, want the temporary v2, version 2", pred)
	}
	var last *ir.Instr
	for _, in := range a.Instrs {
		if in.Dest.Kind == ir.DestField && in.Dest.Hdr == "h" && in.Dest.Field == "a" {
			last = in
		}
	}
	if last == nil || last.Op != ir.IBin || len(last.Args) != 2 {
		t.Fatalf("h.a = v2 + p__i1 lowered to %v", last)
	}
	for _, arg := range last.Args {
		if arg.Kind != ir.OpdVar || arg.Var.Ver != 1 || arg.Var.Bits != 8 || arg.Var.Bool {
			t.Errorf("h.a = v2 + p__i1 reads %v, want the locals' first versions, 8 bits wide", arg)
		}
	}

	// A local declared after a call to a function with a local of its name
	// is not that local: g's t was inlined as t__i2, and so is f's, declared
	// after the call (the inline sequence has moved on to g's); unset, it
	// reads zero.
	irp = lower(t, `
header_type h_t { bit[8] a; bit[32] b; }
header h_t h;
pipeline[P]{m};
algorithm m {
  f();
}
func g() {
  bit[8] t;
  t = h.a + 1;
  h.b = t;
}
func f() {
  g();
  bit[8] t;
  h.a = t;
}
`)
	instrs := irp.Algorithms[0].Instrs
	if in := instrs[len(instrs)-1]; in.Args[0].Kind != ir.OpdConst || in.Args[0].Const != 0 {
		t.Errorf("f's unset t lowered to %s, want h.a = 0", in)
	}
}

package ir

import (
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"lyra/internal/lang/ast"
)

func v(name string, ver, bits int) *Var { return &Var{Name: name, Ver: ver, Bits: bits} }

func TestGuardString(t *testing.T) {
	p, q := v("p", 1, 1), v("q", 1, 1)
	g := Guard{{Var: p}, {Var: q, Neg: true}}
	if got := g.String(); got != "p.1 & !q.1" {
		t.Errorf("guard = %q", got)
	}
	if (Guard{}).String() != "true" {
		t.Error("empty guard should print true")
	}
}

func TestGuardEqual(t *testing.T) {
	p, q := v("p", 1, 1), v("q", 1, 1)
	a := Guard{{Var: p}, {Var: q}}
	b := Guard{{Var: p}, {Var: q}}
	if !a.Equal(b) {
		t.Error("identical guards not equal")
	}
	c := Guard{{Var: p}, {Var: q, Neg: true}}
	if a.Equal(c) {
		t.Error("different polarity should differ")
	}
	if a.Equal(a[:1]) {
		t.Error("different length should differ")
	}
}

func TestMutuallyExclusive(t *testing.T) {
	p, q := v("p", 1, 1), v("q", 1, 1)
	cases := []struct {
		a, b Guard
		want bool
	}{
		{Guard{{Var: p}}, Guard{{Var: p, Neg: true}}, true},
		{Guard{{Var: p}}, Guard{{Var: p}}, false},
		{Guard{{Var: p}, {Var: q}}, Guard{{Var: p}, {Var: q, Neg: true}}, true},
		{Guard{{Var: p}}, Guard{{Var: q}}, false},
		{Guard{{Var: p}}, Guard{{Var: p}, {Var: q}}, false}, // nesting, not exclusion
		{Guard{}, Guard{{Var: p}}, false},
	}
	for i, c := range cases {
		if got := c.a.MutuallyExclusive(c.b); got != c.want {
			t.Errorf("case %d: %v vs %v = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.MutuallyExclusive(c.a); got != c.want {
			t.Errorf("case %d (sym): got %v, want %v", i, got, c.want)
		}
	}
}

func TestInstrStringAndAccessors(t *testing.T) {
	x := v("x", 1, 32)
	y := v("y", 1, 32)
	in := &Instr{
		ID: 3, Alg: "a", Op: IBin, BinOp: ast.OpAdd,
		Dest: Dest{Kind: DestVar, Var: x},
		Args: []Operand{VarOp(y), ConstOp(5)},
	}
	s := in.String()
	if !strings.Contains(s, "x.1 = y.1 + 5") {
		t.Errorf("String = %q", s)
	}
	if in.WritesVar() != x {
		t.Error("WritesVar wrong")
	}
	reads := in.Reads()
	if len(reads) != 1 || reads[0] != y {
		t.Errorf("Reads = %v", reads)
	}

	f := &Instr{Op: IAssign, Dest: Dest{Kind: DestField, Hdr: "ipv4", Field: "ttl"},
		Args: []Operand{FieldOp("ipv4", "ttl", 8)}}
	if f.WritesField() != "ipv4.ttl" {
		t.Errorf("WritesField = %q", f.WritesField())
	}
}

func TestExternDeclWidths(t *testing.T) {
	e := &ExternDecl{
		Name: "route",
		Keys: []ast.Field{
			{Type: ast.Type{Bits: 32}, Name: "src"},
			{Type: ast.Type{Bits: 32}, Name: "dst"},
		},
		Values: []ast.Field{{Type: ast.Type{Bits: 8}, Name: "p"}},
		Size:   1024,
	}
	if e.KeyBits() != 64 || e.ValueBits() != 8 {
		t.Errorf("key=%d val=%d", e.KeyBits(), e.ValueBits())
	}
}

func TestProgramLookups(t *testing.T) {
	p := &Program{
		Algorithms: []*Algorithm{
			{
				Name:    "a",
				Externs: []*ExternDecl{{Name: "t1", Alg: "a"}},
				Globals: []*GlobalDecl{{Name: "g1", Bits: 32, Len: 8, Alg: "a"}},
			},
		},
	}
	if p.Algorithm("a") == nil || p.Algorithm("zzz") != nil {
		t.Error("Algorithm lookup broken")
	}
	if p.Extern("t1") == nil || p.Extern("zzz") != nil {
		t.Error("Extern lookup broken")
	}
	if p.Global("g1") == nil || p.Global("zzz") != nil {
		t.Error("Global lookup broken")
	}
}

func TestDumpRendersEverything(t *testing.T) {
	x := v("x", 1, 8)
	p := &Program{Algorithms: []*Algorithm{{
		Name:    "demo",
		Externs: []*ExternDecl{{Name: "t", Size: 4, Keys: []ast.Field{{Type: ast.Type{Bits: 8}, Name: "k"}}}},
		Globals: []*GlobalDecl{{Name: "g", Bits: 16, Len: 2}},
		Instrs: []*Instr{
			{ID: 0, Alg: "demo", Op: IAssign, Dest: Dest{Kind: DestVar, Var: x}, Args: []Operand{ConstOp(7)}},
			{ID: 1, Alg: "demo", Op: IMember, Dest: Dest{Kind: DestVar, Var: v("m", 1, 1)}, Table: "t", Args: []Operand{VarOp(x)}},
			{ID: 2, Alg: "demo", Op: IGlobalWrite, Table: "g", Args: []Operand{ConstOp(0), VarOp(x)}},
			{ID: 3, Alg: "demo", Op: IPacketOp, Table: "drop"},
			{ID: 4, Alg: "demo", Op: IHeaderAdd, Table: "probe"},
			{ID: 5, Alg: "demo", Op: ISelect, Dest: Dest{Kind: DestVar, Var: v("s", 1, 8)},
				Args: []Operand{VarOp(v("m", 1, 1)), VarOp(x), ConstOp(0)}},
		},
	}}}
	d := p.Dump()
	for _, want := range []string{"algorithm demo", "extern list t", "global g", "x.1 = 7", "in t", "g[0] = x.1", "drop", "add_header", "?"} {
		if !strings.Contains(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func TestOperandString(t *testing.T) {
	if ConstOp(9).String() != "9" {
		t.Error("const")
	}
	if FieldOp("h", "f", 8).String() != "h.f" {
		t.Error("field")
	}
	if VarOp(v("a", 2, 8)).String() != "a.2" {
		t.Error("var")
	}
}

// TestSortByVarMatchesSortSlice: SortByVar puts any list — ties between
// distinct variables of one name and version included — in the order
// sort.Slice gives it under the group-then-String() comparison, which puts
// x.10 before x.2.
func TestSortByVarMatchesSortSlice(t *testing.T) {
	type owned struct {
		alg string
		v   *Var
	}
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 300; n++ {
		var a []owned
		for i := rng.Intn(40); i >= 0; i-- {
			a = append(a, owned{[]string{"a", "b", "ab"}[rng.Intn(3)], &Var{Name: []string{"x", "x_", "y"}[rng.Intn(3)], Ver: rng.Intn(12)}})
		}
		b := append([]owned(nil), a...)
		SortByVar(a, func(o owned) (string, *Var) { return o.alg, o.v })
		sort.Slice(b, func(i, j int) bool {
			if b[i].alg != b[j].alg {
				return b[i].alg < b[j].alg
			}
			return b[i].v.String() < b[j].v.String()
		})
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("list %d: position %d holds %s %s, sort.Slice %s %s", n, i, a[i].alg, a[i].v, b[i].alg, b[i].v)
			}
		}
	}
	vs := []*Var{{Name: "x", Ver: 2}, {Name: "x", Ver: 10}}
	SortByVar(vs, func(v *Var) (string, *Var) { return "", v })
	if vs[0].Ver != 10 {
		t.Errorf("x.2 sorted before x.10")
	}
}

// TestEachReadMatchesReads: EachRead visits what Reads lists, in order.
func TestEachReadMatchesReads(t *testing.T) {
	a, b, g := &Var{Name: "a", Ver: 1}, &Var{Name: "b", Ver: 1}, &Var{Name: "g", Ver: 1}
	in := &Instr{Args: []Operand{VarOp(a), ConstOp(3), FieldOp("h", "f", 8), VarOp(b)}, Guard: Guard{{Var: g}}}
	var got []*Var
	in.EachRead(func(v *Var) { got = append(got, v) })
	if want := in.Reads(); !slices.Equal(got, want) {
		t.Errorf("EachRead visited %v, Reads lists %v", got, want)
	}
}

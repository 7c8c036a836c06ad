package ir

import "testing"

// buildCloneFixture assembles a small two-instruction program by hand:
// v1 = f.a == 3; [v1] f.b = 7, with an extern and a global along for the
// ride.
func buildCloneFixture() *Program {
	v1 := &Var{Name: "v1", Ver: 1, Bits: 1, Bool: true}
	cmp := &Instr{
		ID: 0, Op: IBin, Alg: "m",
		Dest: Dest{Kind: DestVar, Var: v1},
		Args: []Operand{FieldOp("f", "a", 8), ConstOp(3)},
	}
	asn := &Instr{
		ID: 1, Op: IAssign, Alg: "m",
		Dest:  Dest{Kind: DestField, Hdr: "f", Field: "b"},
		Args:  []Operand{ConstOp(7)},
		Guard: Guard{{Var: v1}},
		Deps:  []int{0},
	}
	a := &Algorithm{Name: "m", Instrs: []*Instr{cmp, asn}, Vars: []*Var{v1}}
	return &Program{
		Algorithms: []*Algorithm{a},
		HeaderBits: map[string]int{"f": 16},
		Fields:     []Field{{Hdr: "f", Name: "a", Bits: 8}, {Hdr: "f", Name: "b", Bits: 8}},
	}
}

func TestCloneIsDeepAndIdentityConsistent(t *testing.T) {
	p := buildCloneFixture()
	before := p.Dump()
	q := p.Clone()
	if q.Dump() != before {
		t.Fatalf("clone dump differs:\n%s\nvs\n%s", q.Dump(), before)
	}

	// Var identity must be remapped consistently: the cloned guard term and
	// the cloned dest refer to the same *Var, which is not the original.
	origV := p.Algorithms[0].Instrs[0].Dest.Var
	cloneDest := q.Algorithms[0].Instrs[0].Dest.Var
	cloneGuard := q.Algorithms[0].Instrs[1].Guard[0].Var
	if cloneDest == origV {
		t.Fatal("clone shares a Var pointer with the original")
	}
	if cloneDest != cloneGuard {
		t.Fatal("clone broke Var identity between dest and guard term")
	}
	if q.Algorithms[0].Vars[0] != cloneDest {
		t.Fatal("clone's Vars table does not hold the cloned Var")
	}

	// Mutating the clone must leave the original untouched.
	q.Algorithms[0].Instrs[1].Guard = nil
	q.Algorithms[0].Instrs[0].Args[1].Const = 99
	q.HeaderBits["f"] = 32
	if p.Dump() != before {
		t.Fatalf("mutating the clone changed the original:\n%s", p.Dump())
	}
	if p.HeaderBits["f"] != 16 {
		t.Fatal("clone shares the HeaderBits map")
	}
}

package backend

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lyra/internal/asic"
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

var updateGolden = flag.Bool("update", false, "rewrite the printers' golden files")

// handBuilt is a switch program no compile of the evaluation corpus
// produces: one algorithm whose instructions reach the printers' branches the
// corpus leaves alone — logical not, the bitwise and arithmetic operators
// without a P4_14 primitive of their own, a comparison wider than the chip
// compares at once, every library call and packet operation, the identity
// and crc16 hashes, negated guards, an unprintable instruction — as a
// predicate table, an extern table with a lookup, and an egress table.
func handBuilt() *SwitchProgram {
	alg := "hb"
	vars := int32(0)
	v := func(name string, bits int) *ir.Var {
		vars++
		return &ir.Var{Name: name, Ver: 1, Bits: bits, ID: vars - 1}
	}
	a, b, c, p, q, wide := v("a", 16), v("b", 16), v("c", 16), v("p", 1), v("q", 1), v("w", 64)
	field := func(f string, bits int) ir.Operand { return ir.FieldOp("h", f, bits) }
	id := 0
	in := func(op ir.Op, dest ir.Dest, table string, args ...ir.Operand) *ir.Instr {
		id++
		return &ir.Instr{ID: id, Alg: alg, Op: op, Dest: dest, Table: table, Args: args}
	}
	bin := func(op ast.Op, dest *ir.Var, x, y ir.Operand) *ir.Instr {
		i := in(ir.IBin, ir.Dest{Kind: ir.DestVar, Var: dest}, "", x, y)
		i.BinOp = op
		return i
	}
	to := func(v *ir.Var) ir.Dest { return ir.Dest{Kind: ir.DestVar, Var: v} }
	none := ir.Dest{}
	compute := []*ir.Instr{
		in(ir.IAssign, to(a), "", field("x", 16)),
		in(ir.INot, to(p), "", ir.VarOp(q)),
		bin(ast.OpXor, b, ir.VarOp(a), ir.ConstOp(255)),
		bin(ast.OpShr, b, ir.VarOp(b), ir.ConstOp(3)),
		bin(ast.OpShl, b, ir.VarOp(b), ir.ConstOp(1)),
		bin(ast.OpMul, c, ir.VarOp(a), ir.VarOp(b)),
		bin(ast.OpDiv, c, ir.VarOp(c), ir.ConstOp(7)),
		bin(ast.OpLOr, p, ir.VarOp(p), ir.VarOp(q)),
		bin(ast.OpLAnd, q, ir.VarOp(p), ir.VarOp(q)),
		bin(ast.OpEq, q, ir.VarOp(wide), field("y", 64)),
		bin(ast.OpLt, p, ir.VarOp(a), ir.ConstOp(1000)),
		in(ir.ISelect, to(c), "", ir.VarOp(p), ir.VarOp(a), ir.ConstOp(12345678901)),
		in(ir.IHash, to(a), "identity_hash", field("x", 16), ir.VarOp(b)),
		in(ir.IHash, to(b), "crc16_hash", field("x", 16)),
		in(ir.ILib, to(c), "get_switch_id"),
		in(ir.ILib, to(a), "get_ingress_port"),
		in(ir.ILib, to(b), "get_ingress_timestamp"),
		in(ir.ILib, to(c), "no_such_call"),
		in(ir.IHeaderAdd, none, "h"),
		in(ir.IHeaderRemove, none, "h"),
		in(ir.IPacketOp, none, "forward", ir.VarOp(c)),
		in(ir.IPacketOp, none, "drop"),
		in(ir.IPacketOp, none, "mirror"),
		in(ir.IPacketOp, none, "copy_to_cpu"),
		in(ir.IPacketOp, none, "recirculate"),
		in(ir.IPacketOp, none, "bounce"),
		in(ir.IGlobalRead, to(a), "reg", ir.ConstOp(2)),
		in(ir.IGlobalWrite, none, "reg", ir.VarOp(b), ir.VarOp(c)),
		in(ir.IExternInsert, none, "tbl", ir.VarOp(a), ir.VarOp(b)),
		in(ir.IAssign, ir.Dest{Kind: ir.DestField, Hdr: "h", Field: "x"}, "", ir.VarOp(c)),
		in(ir.Op(99), to(c), "", ir.VarOp(a)),
	}
	compute[2].Guard = ir.Guard{{Var: p, Neg: true}, {Var: q}}
	compute[20].Guard = ir.Guard{{Var: q, Neg: true}}
	egress := []*ir.Instr{
		in(ir.ILib, to(a), "get_queue_len"),
		in(ir.ILib, to(b), "get_queue_time"),
		in(ir.ILib, to(c), "get_egress_timestamp"),
	}
	ext := &ir.ExternDecl{Name: "tbl", Keys: []ast.Field{{Name: "k", Type: ast.Type{Bits: 16}}},
		Values: []ast.Field{{Name: "val", Type: ast.Type{Bits: 16}}}, Alg: alg}
	lookup := []*ir.Instr{
		in(ir.IMember, to(p), "tbl", ir.VarOp(a)),
		in(ir.ILookup, to(b), "tbl", ir.VarOp(a)),
	}
	tCompute := &synth.Table{Name: "t_compute", Alg: alg, Kind: synth.MatchPredicate, Preds: []*ir.Var{p},
		Actions: []*synth.Action{{Name: "a_compute", Instrs: compute}, {Name: "a_empty"}}}
	tExtern := &synth.Table{Name: "t_tbl", Alg: alg, Kind: synth.MatchExtern, Extern: ext, Lookups: 1,
		Actions: []*synth.Action{{Name: "a_hit", Instrs: lookup}}, Deps: []*synth.Table{tCompute}}
	tEgress := &synth.Table{Name: "t_egress", Alg: alg, Kind: synth.MatchNone,
		Actions: []*synth.Action{{Name: "a_egress", Instrs: egress}}}
	var instrs []*ir.Instr
	instrs = append(append(append(instrs, compute...), lookup...), egress...)
	sp := &SwitchProgram{
		Switch: "S1", Model: asic.Tofino32Q, Instrs: instrs,
		Headers: []*HeaderDef{
			{Name: "h", Type: "h_t", Fields: []ast.Field{{Name: "x", Type: ast.Type{Bits: 16}}, {Name: "y", Type: ast.Type{Bits: 64}}}},
			{Name: "empty", Type: "empty_t"},
		},
		Registers: []*RegisterDef{{Name: "reg", Bits: 32, Len: 4096}},
		Tables: []*encode.PlacedTable{
			{Table: tCompute},
			{Table: tExtern, Entries: 70000, ShardIndex: 1, ShardCount: 3},
			{Table: tEgress},
		},
		HitGuards:    map[string]*ir.Var{"t_tbl": q},
		EgressTables: map[string]bool{"t_egress": true},
	}
	sp.Metadata, sp.metaNames = metadataVars(instrs)
	return sp
}

// TestPrintersHandBuiltProgram pins the three printers and the stub on
// handBuilt byte for byte; regenerate with `go test -run HandBuilt -update`.
func TestPrintersHandBuiltProgram(t *testing.T) {
	sp := handBuilt()
	stub := renderStub(sp)
	var cp string
	for i, h := range stub.holes {
		cp += stub.text[i] + "<" + h + ">"
	}
	cp += stub.text[len(stub.holes)]
	for _, c := range []struct{ file, got string }{
		{"handbuilt.p4", EmitP414(sp)},
		{"handbuilt_16.p4", EmitP416(sp)},
		{"handbuilt.npl", EmitNPL(sp)},
		{"handbuilt_stub.py", cp},
	} {
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(c.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if c.got != string(want) {
			t.Errorf("%s differs from its golden file:\n%s", c.file, c.got)
		}
	}
}

// TestShardDocMatchesFmt: a shard-documentation block reads as the
// fmt.Fprintf rendering it replaced, for host names shorter than, as long
// as and longer than %-8s's width, and for one with multi-byte runes.
func TestShardDocMatchesFmt(t *testing.T) {
	group := []encode.Shard{{Switch: ""}, {Switch: "ToR1", Entries: 5}, {Switch: "Agg10_12", Entries: 1 << 40}, {Switch: "Core_1_2_3", Entries: 7}, {Switch: "Zürich", Entries: 9}}
	var want strings.Builder
	fmt.Fprintf(&want, "# %s is split across %d switches:\n", "conn_table", len(group))
	for _, s := range group {
		fmt.Fprintf(&want, "#   %-8s holds %d entries\n", s.Switch, s.Entries)
	}
	if got := shardDoc("conn_table", group); got != want.String() {
		t.Errorf("shardDoc =\n%s\nfmt renders\n%s", got, want.String())
	}
}

package backend

import (
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// nplPrinter renders a SwitchProgram as NPL source (§5.3). NPL programs
// consist of struct (header) declarations, a logical bus carrying local
// variables, logical registers, logical tables with key_construct /
// fields_assign bodies (supporting multiple lookups per table, Figure 2),
// and a program body of C-like function statements.
type nplPrinter struct{ text }

// EmitNPL renders the switch program as NPL.
func EmitNPL(sp *SwitchProgram) string {
	p := &nplPrinter{newText(sp, "lyra_bus.", "", "lyra_bridge.")}
	p.program()
	return printed(p.b)
}

func (p *nplPrinter) program() {
	p.b.WriteString(codeHeader("NPL", p.sp, ""))
	p.line("")
	p.structs()
	p.bus()
	p.registers()
	p.logicalTables()
	p.programBody()
}

func (p *nplPrinter) structs() {
	emit := func(h *HeaderDef) {
		p.open("struct ", h.Type, " {")
		p.open("fields {")
		for _, f := range h.Fields {
			p.in().s(f.Name).s(" : ").d(f.Type.Bits).s(";").nl()
		}
		p.close()
		p.close()
		p.line(h.Type, " ", h.Name, ";")
		p.line("")
	}
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 {
			emit(h)
		}
	}
	if p.sp.Bridge != nil {
		emit(p.sp.Bridge)
	}
}

// bus declares the logical bus carrying local variables between logical
// table invocations (§5.3 "logical bus usage synthesis").
func (p *nplPrinter) bus() {
	if len(p.sp.Metadata) == 0 {
		return
	}
	p.open("bus lyra_bus {")
	p.open("fields {")
	for _, mv := range p.sp.Metadata {
		p.in().s(mv.Name).s(" : ").d(mv.Bits).s(";").nl()
	}
	p.close()
	p.close()
	p.line("")
}

func (p *nplPrinter) registers() {
	for _, r := range p.sp.Registers {
		p.open("logical_register ", r.Name, " {")
		p.in().s("fields { value : ").d(r.Bits).s("; }").nl()
		p.in().s("size : ").d(r.Len).s(";").nl()
		p.close()
		p.line("")
	}
}

// logicalTables emits one logical_table per extern-backed table, with one
// key_construct branch per merged lookup (multi-lookup, Figure 2).
func (p *nplPrinter) logicalTables() {
	for _, pt := range p.sp.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		p.open("logical_table ", pt.Name, " {")
		p.line("table_type : hash;")
		p.in().s("min_size : ").d64(pt.Entries).s(";").nl()
		p.in().s("max_size : ").d64(pt.Entries).s(";").nl()
		if pt.ShardCount > 1 {
			p.shardNote(pt)
		}
		p.open("keys {")
		for _, k := range pt.Extern.Keys {
			p.in().s("bit[").d(k.Type.Bits).s("] ").s(k.Name).s(";").nl()
		}
		p.close()
		p.open("key_construct() {")
		li := 0
		for _, in := range pt.Table.Instrs() {
			if in.Op != ir.IMember && in.Op != ir.ILookup {
				continue
			}
			p.in().s("if (_LOOKUP").d(li).s(") {").nl()
			p.ind++
			for ki, k := range pt.Extern.Keys {
				if ki < len(in.Args) {
					p.in().s(k.Name).s(" = ").op(in.Args[ki]).s(";").nl()
				}
			}
			p.close()
			li++
		}
		p.close()
		p.open("fields_assign() {")
		for _, a := range pt.Actions {
			for _, in := range a.Instrs {
				p.stmt(in)
			}
		}
		p.close()
		p.close()
		p.line("")
	}
}

// stmt renders one IR instruction as an NPL function statement, under an
// if on its guard when it has one.
func (p *nplPrinter) stmt(in *ir.Instr) {
	mark := p.b.Len()
	p.in()
	if len(in.Guard) > 0 {
		p.s("if (")
		for i, g := range in.Guard {
			if i > 0 {
				p.s(" && ")
			}
			if g.Neg {
				p.s("!")
			}
			p.ref(g.Var)
		}
		p.s(") { ")
	}
	if !p.stmtBody(in) {
		p.b.Truncate(mark)
		return
	}
	if len(in.Guard) > 0 {
		p.s(" }")
	}
	p.nl()
}

// stmtBody writes the statement itself, and reports whether the instruction
// has one.
func (p *nplPrinter) stmtBody(in *ir.Instr) bool {
	switch in.Op {
	case ir.IAssign:
		p.dst(in.Dest).s(" = ").op(in.Args[0]).s(";")
	case ir.IBin:
		p.dst(in.Dest).s(" = ").op(in.Args[0]).s(" ").s(nplOp(in.BinOp)).s(" ").op(in.Args[1]).s(";")
	case ir.INot:
		p.dst(in.Dest).s(" = !").op(in.Args[0]).s(";")
	case ir.ISelect:
		p.dst(in.Dest).s(" = ").op(in.Args[0]).s(" ? ").op(in.Args[1]).s(" : ").op(in.Args[2]).s(";")
	case ir.IHash:
		p.dst(in.Dest).s(" = ").s(in.Table).s("(")
		for i, a := range in.Args {
			if i > 0 {
				p.s(", ")
			}
			p.op(a)
		}
		p.s(");")
	case ir.ILib:
		p.dst(in.Dest).s(" = ").s(in.Table).s("();")
	case ir.IHeaderAdd:
		p.s(in.Table).s(".valid = 1;")
	case ir.IHeaderRemove:
		p.s(in.Table).s(".valid = 0;")
	case ir.IPacketOp:
		switch in.Table {
		case "drop":
			p.s("drop();")
		case "forward":
			p.s("set_egress_port(").op(in.Args[0]).s(");")
		case "mirror":
			p.s("mirror(LYRA_MIRROR_SESSION);")
		case "copy_to_cpu":
			p.s("copy_to_cpu();")
		default:
			p.s(in.Table).s("();")
		}
	case ir.IMember:
		p.dst(in.Dest).s(" = _LOOKUP_HIT;")
	case ir.ILookup:
		p.dst(in.Dest).s(" = _LOOKUP_VALUE;")
	case ir.IGlobalRead:
		p.dst(in.Dest).s(" = ").s(in.Table).s("[").op(in.Args[0]).s("].value;")
	case ir.IGlobalWrite:
		p.s(in.Table).s("[").op(in.Args[0]).s("].value = ").op(in.Args[1]).s(";")
	case ir.IExternInsert:
		p.s("learn(").s(in.Table).s(");")
	default:
		return false
	}
	return true
}

func nplOp(op ast.Op) string {
	switch op {
	case ast.OpLAnd:
		return "&&"
	case ast.OpLOr:
		return "||"
	}
	return op.String()
}

// programBody emits the main program: lookups in dependency order plus
// function statements.
func (p *nplPrinter) programBody() {
	p.open("program lyra {")
	for _, pt := range p.sp.Tables {
		switch pt.Kind {
		case synth.MatchExtern:
			if hit, ok := p.sp.HitGuards[pt.Name]; ok {
				p.in().s("if (").ref(hit).s(" == 0) {").nl()
				p.ind++
				p.lookups(pt)
				p.close()
			} else {
				p.lookups(pt)
			}
		default:
			for _, fp := range pt.FieldPreds {
				if fp.Instr != nil {
					p.stmt(fp.Instr)
				}
			}
			for _, a := range pt.Actions {
				for _, in := range a.Instrs {
					p.stmt(in)
				}
			}
		}
	}
	if len(p.sp.Exports) > 0 {
		p.line("lyra_bridge.valid = 1;")
		for _, bv := range p.sp.Exports {
			p.in().s("lyra_bridge.").s(bv.Field).s(" = lyra_bus.").field(bv.Var).s(";").nl()
		}
	}
	p.close()
}

// lookups invokes each of a logical table's lookups.
func (p *nplPrinter) lookups(pt *encode.PlacedTable) {
	for i := 0; i < pt.Lookups; i++ {
		p.in().s(pt.Name).s(".lookup(").d(i).s(");").nl()
	}
}

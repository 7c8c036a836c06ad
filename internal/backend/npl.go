package backend

import (
	"bytes"
	"fmt"
	"strings"

	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// nplPrinter renders a SwitchProgram as NPL source (§5.3). NPL programs
// consist of struct (header) declarations, a logical bus carrying local
// variables, logical registers, logical tables with key_construct /
// fields_assign bodies (supporting multiple lookups per table, Figure 2),
// and a program body of C-like function statements.
type nplPrinter struct {
	sp  *SwitchProgram
	b   *bytes.Buffer
	ind int

	imports map[*ir.Var]string
}

// EmitNPL renders the switch program as NPL.
func EmitNPL(sp *SwitchProgram) string {
	p := &nplPrinter{sp: sp, b: printBuf(), imports: map[*ir.Var]string{}}
	for _, bv := range sp.Imports {
		p.imports[bv.Var] = "lyra_bridge." + BridgeFieldName(bv.Alg, bv.Var)
	}
	p.program()
	return printed(p.b)
}

func (p *nplPrinter) line(format string, args ...any) {
	writeLine(p.b, p.ind, format, args...)
}

func (p *nplPrinter) open(format string, args ...any) {
	p.line(format, args...)
	p.ind++
}

func (p *nplPrinter) close() {
	p.ind--
	p.line("}")
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
		p.open("struct %s {", h.Type)
		p.open("fields {")
		for _, f := range h.Fields {
			p.line("%s : %d;", f.Name, f.Type.Bits)
		}
		p.close()
		p.close()
		p.line("%s %s;", h.Type, h.Name)
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
		p.line("%s : %d;", mv.Name, mv.Bits)
	}
	p.close()
	p.close()
	p.line("")
}

func (p *nplPrinter) registers() {
	for _, r := range p.sp.Registers {
		p.open("logical_register %s {", r.Name)
		p.line("fields { value : %d; }", r.Bits)
		p.line("size : %d;", r.Len)
		p.close()
		p.line("")
	}
}

func (p *nplPrinter) operand(o ir.Operand) string {
	switch o.Kind {
	case ir.OpdConst:
		return fmt.Sprintf("%d", o.Const)
	case ir.OpdVar:
		if ref, ok := p.imports[o.Var]; ok {
			return ref
		}
		return "lyra_bus." + p.sp.MetaField(o.Var)
	case ir.OpdField:
		return o.Hdr + "." + o.Field
	}
	return "0"
}

func (p *nplPrinter) dest(d ir.Dest) string {
	switch d.Kind {
	case ir.DestVar:
		return "lyra_bus." + p.sp.MetaField(d.Var)
	case ir.DestField:
		return d.Hdr + "." + d.Field
	}
	return "_"
}

// logicalTables emits one logical_table per extern-backed table, with one
// key_construct branch per merged lookup (multi-lookup, Figure 2).
func (p *nplPrinter) logicalTables() {
	for _, pt := range p.sp.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		p.open("logical_table %s {", pt.Name)
		p.line("table_type : hash;")
		p.line("min_size : %d;", pt.Entries)
		p.line("max_size : %d;", pt.Entries)
		if pt.ShardCount > 1 {
			p.line("/* shard %d of %d of extern %s */", pt.ShardIndex+1, pt.ShardCount, pt.Extern.Name)
		}
		p.open("keys {")
		for _, k := range pt.Extern.Keys {
			p.line("bit[%d] %s;", k.Type.Bits, k.Name)
		}
		p.close()
		p.open("key_construct() {")
		li := 0
		for _, in := range pt.Table.Instrs() {
			if in.Op != ir.IMember && in.Op != ir.ILookup {
				continue
			}
			p.open("if (_LOOKUP%d) {", li)
			for ki, k := range pt.Extern.Keys {
				if ki < len(in.Args) {
					p.line("%s = %s;", k.Name, p.operand(in.Args[ki]))
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

// stmt renders one IR instruction as an NPL function statement.
func (p *nplPrinter) stmt(in *ir.Instr) {
	guard := ""
	if len(in.Guard) > 0 {
		var terms []string
		for _, g := range in.Guard {
			ref := p.guardRef(g.Var)
			if g.Neg {
				terms = append(terms, "!"+ref)
			} else {
				terms = append(terms, ref)
			}
		}
		guard = strings.Join(terms, " && ")
	}
	body := p.stmtBody(in)
	if body == "" {
		return
	}
	if guard != "" {
		p.line("if (%s) { %s }", guard, body)
		return
	}
	p.line("%s", body)
}

func (p *nplPrinter) guardRef(v *ir.Var) string {
	if ref, ok := p.imports[v]; ok {
		return ref
	}
	return "lyra_bus." + p.sp.MetaField(v)
}

func (p *nplPrinter) stmtBody(in *ir.Instr) string {
	switch in.Op {
	case ir.IAssign:
		return fmt.Sprintf("%s = %s;", p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.IBin:
		op := nplOp(in.BinOp)
		return fmt.Sprintf("%s = %s %s %s;", p.dest(in.Dest), p.operand(in.Args[0]), op, p.operand(in.Args[1]))
	case ir.INot:
		return fmt.Sprintf("%s = !%s;", p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.ISelect:
		return fmt.Sprintf("%s = %s ? %s : %s;", p.dest(in.Dest),
			p.operand(in.Args[0]), p.operand(in.Args[1]), p.operand(in.Args[2]))
	case ir.IHash:
		var args []string
		for _, a := range in.Args {
			args = append(args, p.operand(a))
		}
		return fmt.Sprintf("%s = %s(%s);", p.dest(in.Dest), in.Table, strings.Join(args, ", "))
	case ir.ILib:
		return fmt.Sprintf("%s = %s();", p.dest(in.Dest), in.Table)
	case ir.IHeaderAdd:
		return fmt.Sprintf("%s.valid = 1;", in.Table)
	case ir.IHeaderRemove:
		return fmt.Sprintf("%s.valid = 0;", in.Table)
	case ir.IPacketOp:
		switch in.Table {
		case "drop":
			return "drop();"
		case "forward":
			return fmt.Sprintf("set_egress_port(%s);", p.operand(in.Args[0]))
		case "mirror":
			return "mirror(LYRA_MIRROR_SESSION);"
		case "copy_to_cpu":
			return "copy_to_cpu();"
		}
		return fmt.Sprintf("%s();", in.Table)
	case ir.IMember:
		return fmt.Sprintf("%s = _LOOKUP_HIT;", p.dest(in.Dest))
	case ir.ILookup:
		return fmt.Sprintf("%s = _LOOKUP_VALUE;", p.dest(in.Dest))
	case ir.IGlobalRead:
		return fmt.Sprintf("%s = %s[%s].value;", p.dest(in.Dest), in.Table, p.operand(in.Args[0]))
	case ir.IGlobalWrite:
		return fmt.Sprintf("%s[%s].value = %s;", in.Table, p.operand(in.Args[0]), p.operand(in.Args[1]))
	case ir.IExternInsert:
		return fmt.Sprintf("learn(%s);", in.Table)
	}
	return ""
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
				p.open("if (%s == 0) {", p.guardRef(hit))
				for i := 0; i < pt.Lookups; i++ {
					p.line("%s.lookup(%d);", pt.Name, i)
				}
				p.close()
			} else {
				for i := 0; i < pt.Lookups; i++ {
					p.line("%s.lookup(%d);", pt.Name, i)
				}
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
			p.line("lyra_bridge.%s = lyra_bus.%s;", BridgeFieldName(bv.Alg, bv.Var), p.sp.MetaField(bv.Var))
		}
	}
	p.close()
}

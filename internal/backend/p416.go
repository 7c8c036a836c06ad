package backend

import (
	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// p416Printer renders a SwitchProgram as P4_16 source targeting the v1model
// architecture. P4_16 expresses predicates as control-block if statements
// (Figure 5), so gateway tables become conditions and only extern-backed
// tables remain match-action tables.
type p416Printer struct{ text }

// EmitP416 renders the switch program as P4_16.
func EmitP416(sp *SwitchProgram) string {
	p := &p416Printer{newText(sp, "meta.", "hdr.", "hdr.lyra_bridge.")}
	p.program()
	return printed(p.b)
}

func (p *p416Printer) program() {
	p.b.WriteString(codeHeader("P4_16", p.sp, ""))
	p.line("#include <core.p4>")
	p.line("#include <v1model.p4>")
	p.line("")
	p.headers()
	p.parser()
	p.ingress()
	p.footer()
}

func (p *p416Printer) headers() {
	emit := func(h *HeaderDef) {
		p.open("header ", h.Type, " {")
		for _, f := range h.Fields {
			p.in().s("bit<").d(f.Type.Bits).s("> ").s(f.Name).s(";").nl()
		}
		p.close()
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
	p.open("struct headers_t {")
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 {
			p.line(h.Type, " ", h.Name, ";")
		}
	}
	if p.sp.Bridge != nil {
		p.line(p.sp.Bridge.Type, " ", p.sp.Bridge.Name, ";")
	}
	p.close()
	p.line("")
	p.open("struct metadata_t {")
	for _, mv := range p.sp.Metadata {
		p.in().s("bit<").d(mv.Bits).s("> ").s(mv.Name).s(";").nl()
	}
	p.close()
	p.line("")
}

func (p *p416Printer) parser() {
	p.open("parser LyraParser(packet_in pkt, out headers_t hdr, inout metadata_t meta, inout standard_metadata_t smeta) {")
	p.open("state start {")
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 {
			p.line("pkt.extract(hdr.", h.Name, ");")
		}
	}
	if p.sp.Bridge != nil && len(p.sp.Imports) > 0 {
		p.line("pkt.extract(hdr.", p.sp.Bridge.Name, ");")
	}
	p.line("transition accept;")
	p.close()
	p.close()
	p.line("")
}

// width returns the bit width of a destination for cast insertion.
func (p *p416Printer) width(d ir.Dest) int {
	switch d.Kind {
	case ir.DestVar:
		if d.Var.Bits > 0 {
			return d.Var.Bits
		}
	case ir.DestField:
		// Field widths resolved from args at emission; default 32.
	}
	return 32
}

func (p *p416Printer) stmt(in *ir.Instr) {
	switch in.Op {
	case ir.IAssign:
		p.in().dst(in.Dest).s(" = (bit<").d(p.width(in.Dest)).s(">)").op(in.Args[0]).s(";").nl()
	case ir.IBin:
		if in.BinOp.IsComparison() || in.BinOp.IsLogical() {
			// Figure 5(a): chips bound the width of a single comparison
			// (e.g. 44 bits); wider equality tests are decomposed into
			// slice comparisons that the chip can execute.
			if w := operandWidth(in.Args[0]); p.sp.Model.MaxCompareBits > 0 &&
				w > p.sp.Model.MaxCompareBits && in.BinOp == ast.OpEq {
				half := w / 2
				a, b := in.Args[0], in.Args[1]
				p.in().dst(in.Dest).s(" = (").op(a).s("[").d(half - 1).s(":0] == ").op(b).s("[").d(half - 1).s(":0] && ").
					op(a).s("[").d(w - 1).s(":").d(half).s("] == ").op(b).s("[").d(w - 1).s(":").d(half).s("]) ? (bit<1>)1 : 0;").nl()
				return
			}
			p.in().dst(in.Dest).s(" = (").op(in.Args[0]).s(" ").s(p416Op(in.BinOp)).s(" ").op(in.Args[1]).s(") ? (bit<1>)1 : 0;").nl()
			return
		}
		p.in().dst(in.Dest).s(" = ").op(in.Args[0]).s(" ").s(p416Op(in.BinOp)).s(" ").op(in.Args[1]).s(";").nl()
	case ir.INot:
		p.in().dst(in.Dest).s(" = ").op(in.Args[0]).s(" ^ 1;").nl()
	case ir.ISelect:
		p.in().dst(in.Dest).s(" = (").op(in.Args[0]).s(" == 1) ? ").op(in.Args[1]).s(" : ").op(in.Args[2]).s(";").nl()
	case ir.IHash:
		algo := "HashAlgorithm.crc32"
		if in.Table == "crc16_hash" {
			algo = "HashAlgorithm.crc16"
		}
		p.in().s("hash(").dst(in.Dest).s(", ").s(algo).s(", (bit<32>)0, {")
		for i, a := range in.Args {
			if i > 0 {
				p.s(", ")
			}
			p.op(a)
		}
		p.s("}, (bit<64>)").u(uint64(1) << uint(destBits(in))).s(");").nl()
	case ir.ILib:
		p.libStmt(in)
	case ir.IHeaderAdd:
		p.line("hdr.", in.Table, ".setValid();")
	case ir.IHeaderRemove:
		p.line("hdr.", in.Table, ".setInvalid();")
	case ir.IPacketOp:
		switch in.Table {
		case "drop":
			p.line("mark_to_drop(smeta);")
		case "forward":
			p.in().s("smeta.egress_spec = (bit<9>)").op(in.Args[0]).s(";").nl()
		case "mirror":
			p.line("clone(CloneType.I2E, LYRA_MIRROR_SESSION);")
		case "copy_to_cpu":
			p.line("clone(CloneType.I2E, LYRA_CPU_SESSION);")
		case "recirculate":
			p.line("recirculate_preserving_field_list(0);")
		}
	case ir.IGlobalRead:
		p.in().s(in.Table).s(".read(").dst(in.Dest).s(", (bit<32>)").op(in.Args[0]).s(");").nl()
	case ir.IGlobalWrite:
		p.in().s(in.Table).s(".write((bit<32>)").op(in.Args[0]).s(", ").op(in.Args[1]).s(");").nl()
	case ir.IExternInsert:
		p.line("digest(LEARN_RECEIVER, { /* ", in.Table, " key/value */ });")
	}
}

func (p *p416Printer) libStmt(in *ir.Instr) {
	src := ""
	switch in.Table {
	case "get_queue_len":
		src = "(bit<32>)smeta.deq_qdepth"
	case "get_queue_time":
		src = "(bit<32>)smeta.deq_timedelta"
	case "get_ingress_timestamp":
		src = "(bit<48>)smeta.ingress_global_timestamp"
	case "get_egress_timestamp":
		src = "(bit<48>)smeta.egress_global_timestamp"
	case "get_switch_id":
		src = "LYRA_SWITCH_ID"
	case "get_ingress_port":
		src = "(bit<9>)smeta.ingress_port"
	default:
		return
	}
	p.in().dst(in.Dest).s(" = ").s(src).s(";").nl()
}

func p416Op(op ast.Op) string {
	switch op {
	case ast.OpLAnd:
		return "&&"
	case ast.OpLOr:
		return "||"
	}
	return op.String()
}

func (p *p416Printer) ingress() {
	p.open("control LyraIngress(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t smeta) {")
	// Registers.
	for _, r := range p.sp.Registers {
		p.in().s("register<bit<").d(r.Bits).s(">>(").d(r.Len).s(") ").s(r.Name).s(";").nl()
	}
	// Extern tables with their actions.
	for _, pt := range p.sp.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		for _, a := range pt.Actions {
			p.in().s("action ").s(a.Name).s("(")
			if actionReadsValue(a) {
				p.s("bit<").d(valueBits(pt)).s("> value")
			}
			p.s(") {").nl()
			p.ind++
			for _, in := range a.Instrs {
				if in.Op == ir.ILookup {
					p.in().dst(in.Dest).s(" = value;").nl()
					continue
				}
				if in.Op == ir.IMember {
					p.in().dst(in.Dest).s(" = 1;").nl()
					continue
				}
				p.stmt(in)
			}
			p.close()
		}
		p.open("table ", pt.Name, " {")
		p.open("key = {")
		for _, k := range p.keyRefs(pt) {
			p.line(k, " : exact;")
		}
		p.close()
		p.open("actions = {")
		for _, a := range pt.Actions {
			p.line(a.Name, ";")
		}
		p.line("NoAction;")
		p.close()
		p.in().s("size = ").d64(pt.Entries).s(";").nl()
		p.line("default_action = NoAction();")
		p.close()
	}
	// Apply block: non-extern work inline with if conditions; extern
	// tables applied in order.
	p.open("apply {")
	for _, pt := range p.sp.Tables {
		if hit, ok := p.sp.HitGuards[pt.Name]; ok {
			p.in().s("if (").ref(hit).s(" == 0) {").nl()
			p.ind++
			p.applyTable(pt)
			p.close()
			continue
		}
		p.applyTable(pt)
	}
	if len(p.sp.Exports) > 0 {
		p.line("hdr.lyra_bridge.setValid();")
		for _, bv := range p.sp.Exports {
			p.in().s("hdr.lyra_bridge.").s(bv.Field).s(" = meta.").field(bv.Var).s(";").nl()
		}
	}
	p.close()
	p.close()
	p.line("")
}

func (p *p416Printer) applyTable(pt *encode.PlacedTable) {
	if pt.Kind == synth.MatchExtern {
		p.line(pt.Name, ".apply();")
		return
	}
	// Absorbed comparisons were lifted out of action bodies; compute them
	// first so the guards below can read their results.
	for _, fp := range pt.FieldPreds {
		if fp.Instr != nil {
			p.stmt(fp.Instr)
		}
	}
	// Compute/predicate table: inline statements under their guards.
	for _, a := range pt.Actions {
		for _, in := range a.Instrs {
			if len(in.Guard) == 0 {
				p.stmt(in)
				continue
			}
			p.in().s("if (")
			for i, g := range in.Guard {
				if i > 0 {
					p.s(" && ")
				}
				p.ref(g.Var)
				if g.Neg {
					p.s(" == 0")
				} else {
					p.s(" == 1")
				}
			}
			p.s(") {").nl()
			p.ind++
			p.stmt(in)
			p.close()
		}
	}
}

func (p *p416Printer) keyRefs(pt *encode.PlacedTable) []string {
	seen := map[string]bool{}
	var out []string
	for _, in := range pt.Table.Instrs() {
		if in.Op != ir.IMember && in.Op != ir.ILookup {
			continue
		}
		for _, a := range in.Args {
			mark := p.b.Len()
			p.op(a)
			ref := p.cut(mark)
			if !seen[ref] {
				seen[ref] = true
				out = append(out, ref)
			}
		}
	}
	return out
}

// operandWidth returns an operand's bit width (0 when unknown).
func operandWidth(o ir.Operand) int {
	switch o.Kind {
	case ir.OpdVar:
		return o.Var.Bits
	case ir.OpdField:
		return o.Bits
	}
	return 0
}

func valueBits(pt *encode.PlacedTable) int {
	if pt.Extern != nil && pt.Extern.ValueBits() > 0 {
		return pt.Extern.ValueBits()
	}
	return 32
}

func (p *p416Printer) footer() {
	p.line("control LyraEgress(inout headers_t hdr, inout metadata_t meta, inout standard_metadata_t smeta) { apply { } }")
	p.line("control LyraVerifyChecksum(inout headers_t hdr, inout metadata_t meta) { apply { } }")
	p.line("control LyraComputeChecksum(inout headers_t hdr, inout metadata_t meta) { apply { } }")
	p.open("control LyraDeparser(packet_out pkt, in headers_t hdr) {")
	p.open("apply {")
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 {
			p.line("pkt.emit(hdr.", h.Name, ");")
		}
	}
	if p.sp.Bridge != nil {
		p.line("pkt.emit(hdr.", p.sp.Bridge.Name, ");")
	}
	p.close()
	p.close()
	p.line("")
	p.line("V1Switch(LyraParser(), LyraVerifyChecksum(), LyraIngress(), LyraEgress(), LyraComputeChecksum(), LyraDeparser()) main;")
}

package backend

import (
	"bytes"
	"fmt"
	"strings"

	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// p416Printer renders a SwitchProgram as P4_16 source targeting the v1model
// architecture. P4_16 expresses predicates as control-block if statements
// (Figure 5), so gateway tables become conditions and only extern-backed
// tables remain match-action tables.
type p416Printer struct {
	sp  *SwitchProgram
	b   *bytes.Buffer
	ind int

	imports map[*ir.Var]string
}

// EmitP416 renders the switch program as P4_16.
func EmitP416(sp *SwitchProgram) string {
	p := &p416Printer{sp: sp, b: printBuf(), imports: map[*ir.Var]string{}}
	for _, bv := range sp.Imports {
		p.imports[bv.Var] = "hdr.lyra_bridge." + BridgeFieldName(bv.Alg, bv.Var)
	}
	p.program()
	return printed(p.b)
}

func (p *p416Printer) line(format string, args ...any) {
	writeLine(p.b, p.ind, format, args...)
}

func (p *p416Printer) open(format string, args ...any) {
	p.line(format, args...)
	p.ind++
}

func (p *p416Printer) close(suffix string) {
	p.ind--
	p.line("}%s", suffix)
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
		p.open("header %s {", h.Type)
		for _, f := range h.Fields {
			p.line("bit<%d> %s;", f.Type.Bits, f.Name)
		}
		p.close("")
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
			p.line("%s %s;", h.Type, h.Name)
		}
	}
	if p.sp.Bridge != nil {
		p.line("%s %s;", p.sp.Bridge.Type, p.sp.Bridge.Name)
	}
	p.close("")
	p.line("")
	p.open("struct metadata_t {")
	for _, mv := range p.sp.Metadata {
		p.line("bit<%d> %s;", mv.Bits, mv.Name)
	}
	p.close("")
	p.line("")
}

func (p *p416Printer) parser() {
	p.open("parser LyraParser(packet_in pkt, out headers_t hdr, inout metadata_t meta, inout standard_metadata_t smeta) {")
	p.open("state start {")
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 {
			p.line("pkt.extract(hdr.%s);", h.Name)
		}
	}
	if p.sp.Bridge != nil && len(p.sp.Imports) > 0 {
		p.line("pkt.extract(hdr.%s);", p.sp.Bridge.Name)
	}
	p.line("transition accept;")
	p.close("")
	p.close("")
	p.line("")
}

func (p *p416Printer) operand(o ir.Operand) string {
	switch o.Kind {
	case ir.OpdConst:
		return fmt.Sprintf("%d", o.Const)
	case ir.OpdVar:
		if ref, ok := p.imports[o.Var]; ok {
			return ref
		}
		return "meta." + p.sp.MetaField(o.Var)
	case ir.OpdField:
		return "hdr." + o.Hdr + "." + o.Field
	}
	return "0"
}

func (p *p416Printer) dest(d ir.Dest) string {
	switch d.Kind {
	case ir.DestVar:
		return "meta." + p.sp.MetaField(d.Var)
	case ir.DestField:
		return "hdr." + d.Hdr + "." + d.Field
	}
	return "_"
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
		p.line("%s = (bit<%d>)%s;", p.dest(in.Dest), p.width(in.Dest), p.operand(in.Args[0]))
	case ir.IBin:
		if in.BinOp.IsComparison() || in.BinOp.IsLogical() {
			// Figure 5(a): chips bound the width of a single comparison
			// (e.g. 44 bits); wider equality tests are decomposed into
			// slice comparisons that the chip can execute.
			if w := operandWidth(in.Args[0]); p.sp.Model.MaxCompareBits > 0 &&
				w > p.sp.Model.MaxCompareBits && in.BinOp == ast.OpEq {
				half := w / 2
				a, b := p.operand(in.Args[0]), p.operand(in.Args[1])
				p.line("%s = (%s[%d:0] == %s[%d:0] && %s[%d:%d] == %s[%d:%d]) ? (bit<1>)1 : 0;",
					p.dest(in.Dest), a, half-1, b, half-1, a, w-1, half, b, w-1, half)
				return
			}
			p.line("%s = (%s %s %s) ? (bit<1>)1 : 0;", p.dest(in.Dest),
				p.operand(in.Args[0]), p416Op(in.BinOp), p.operand(in.Args[1]))
			return
		}
		p.line("%s = %s %s %s;", p.dest(in.Dest), p.operand(in.Args[0]), p416Op(in.BinOp), p.operand(in.Args[1]))
	case ir.INot:
		p.line("%s = %s ^ 1;", p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.ISelect:
		p.line("%s = (%s == 1) ? %s : %s;", p.dest(in.Dest),
			p.operand(in.Args[0]), p.operand(in.Args[1]), p.operand(in.Args[2]))
	case ir.IHash:
		var args []string
		for _, a := range in.Args {
			args = append(args, p.operand(a))
		}
		algo := "HashAlgorithm.crc32"
		if in.Table == "crc16_hash" {
			algo = "HashAlgorithm.crc16"
		}
		p.line("hash(%s, %s, (bit<32>)0, {%s}, (bit<64>)%d);",
			p.dest(in.Dest), algo, strings.Join(args, ", "), uint64(1)<<uint(destBits(in)))
	case ir.ILib:
		p.libStmt(in)
	case ir.IHeaderAdd:
		p.line("hdr.%s.setValid();", in.Table)
	case ir.IHeaderRemove:
		p.line("hdr.%s.setInvalid();", in.Table)
	case ir.IPacketOp:
		switch in.Table {
		case "drop":
			p.line("mark_to_drop(smeta);")
		case "forward":
			p.line("smeta.egress_spec = (bit<9>)%s;", p.operand(in.Args[0]))
		case "mirror":
			p.line("clone(CloneType.I2E, LYRA_MIRROR_SESSION);")
		case "copy_to_cpu":
			p.line("clone(CloneType.I2E, LYRA_CPU_SESSION);")
		case "recirculate":
			p.line("recirculate_preserving_field_list(0);")
		}
	case ir.IGlobalRead:
		p.line("%s.read(%s, (bit<32>)%s);", in.Table, p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.IGlobalWrite:
		p.line("%s.write((bit<32>)%s, %s);", in.Table, p.operand(in.Args[0]), p.operand(in.Args[1]))
	case ir.IExternInsert:
		p.line("digest(LEARN_RECEIVER, { /* %s key/value */ });", in.Table)
	}
}

func (p *p416Printer) libStmt(in *ir.Instr) {
	d := p.dest(in.Dest)
	switch in.Table {
	case "get_queue_len":
		p.line("%s = (bit<32>)smeta.deq_qdepth;", d)
	case "get_queue_time":
		p.line("%s = (bit<32>)smeta.deq_timedelta;", d)
	case "get_ingress_timestamp":
		p.line("%s = (bit<48>)smeta.ingress_global_timestamp;", d)
	case "get_egress_timestamp":
		p.line("%s = (bit<48>)smeta.egress_global_timestamp;", d)
	case "get_switch_id":
		p.line("%s = LYRA_SWITCH_ID;", d)
	case "get_ingress_port":
		p.line("%s = (bit<9>)smeta.ingress_port;", d)
	}
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
		p.line("register<bit<%d>>(%d) %s;", r.Bits, r.Len, r.Name)
	}
	// Extern tables with their actions.
	for _, pt := range p.sp.Tables {
		if pt.Kind != synth.MatchExtern {
			continue
		}
		for _, a := range pt.Actions {
			param := ""
			if actionReadsValue(a) {
				param = fmt.Sprintf("bit<%d> value", valueBits(pt))
			}
			p.open("action %s(%s) {", a.Name, param)
			for _, in := range a.Instrs {
				if in.Op == ir.ILookup {
					p.line("%s = value;", p.dest(in.Dest))
					continue
				}
				if in.Op == ir.IMember {
					p.line("%s = 1;", p.dest(in.Dest))
					continue
				}
				p.stmt(in)
			}
			p.close("")
		}
		p.open("table %s {", pt.Name)
		p.open("key = {")
		for _, k := range p.keyRefs(pt) {
			p.line("%s : exact;", k)
		}
		p.close("")
		p.open("actions = {")
		for _, a := range pt.Actions {
			p.line("%s;", a.Name)
		}
		p.line("NoAction;")
		p.close("")
		p.line("size = %d;", pt.Entries)
		p.line("default_action = NoAction();")
		p.close("")
	}
	// Apply block: non-extern work inline with if conditions; extern
	// tables applied in order.
	p.open("apply {")
	for _, pt := range p.sp.Tables {
		if hit, ok := p.sp.HitGuards[pt.Name]; ok {
			p.open("if (%s == 0) {", p.guardRef(hit))
			p.applyTable(pt)
			p.close("")
			continue
		}
		p.applyTable(pt)
	}
	if len(p.sp.Exports) > 0 {
		p.line("hdr.lyra_bridge.setValid();")
		for _, bv := range p.sp.Exports {
			p.line("hdr.lyra_bridge.%s = meta.%s;", BridgeFieldName(bv.Alg, bv.Var), p.sp.MetaField(bv.Var))
		}
	}
	p.close("")
	p.close("")
	p.line("")
}

func (p *p416Printer) guardRef(v *ir.Var) string {
	if ref, ok := p.imports[v]; ok {
		return ref
	}
	return "meta." + p.sp.MetaField(v)
}

func (p *p416Printer) applyTable(pt *encode.PlacedTable) {
	if pt.Kind == synth.MatchExtern {
		p.line("%s.apply();", pt.Name)
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
			var conds []string
			for _, g := range in.Guard {
				ref := p.guardRef(g.Var)
				if g.Neg {
					conds = append(conds, fmt.Sprintf("%s == 0", ref))
				} else {
					conds = append(conds, fmt.Sprintf("%s == 1", ref))
				}
			}
			p.open("if (%s) {", strings.Join(conds, " && "))
			p.stmt(in)
			p.close("")
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
			ref := p.operand(a)
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
			p.line("pkt.emit(hdr.%s);", h.Name)
		}
	}
	if p.sp.Bridge != nil {
		p.line("pkt.emit(hdr.%s);", p.sp.Bridge.Name)
	}
	p.close("")
	p.close("")
	p.line("")
	p.line("V1Switch(LyraParser(), LyraVerifyChecksum(), LyraIngress(), LyraEgress(), LyraComputeChecksum(), LyraDeparser()) main;")
}

package backend

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// p414Printer renders a SwitchProgram as P4_14 source.
type p414Printer struct {
	sp  *SwitchProgram
	b   *bytes.Buffer
	ind int

	imports map[*ir.Var]string // var -> bridge field reference
}

// EmitP414 renders the switch program as P4_14.
func EmitP414(sp *SwitchProgram) string {
	p := &p414Printer{sp: sp, b: printBuf(), imports: map[*ir.Var]string{}}
	for _, bv := range sp.Imports {
		p.imports[bv.Var] = "lyra_bridge." + BridgeFieldName(bv.Alg, bv.Var)
	}
	p.program()
	return printed(p.b)
}

func (p *p414Printer) line(format string, args ...any) {
	writeLine(p.b, p.ind, format, args...)
}

func (p *p414Printer) open(format string, args ...any) {
	p.line(format, args...)
	p.ind++
}

func (p *p414Printer) close(suffix string) {
	p.ind--
	p.line("}%s", suffix)
}

func (p *p414Printer) program() {
	p.b.WriteString(codeHeader("P4_14", p.sp, ""))
	p.line("")
	p.headers()
	p.metadata()
	p.parser()
	p.registers()
	p.actionsAndTables()
	p.control()
}

func (p *p414Printer) headers() {
	emit := func(h *HeaderDef) {
		p.open("header_type %s {", h.Type)
		p.open("fields {")
		for _, f := range h.Fields {
			p.line("%s : %d;", f.Name, f.Type.Bits)
		}
		p.close("")
		p.close("")
		p.line("header %s %s;", h.Type, h.Name)
		p.line("")
	}
	for _, h := range p.sp.Headers {
		if len(h.Fields) == 0 {
			continue
		}
		emit(h)
	}
	if p.sp.Bridge != nil {
		emit(p.sp.Bridge)
	}
}

func (p *p414Printer) metadata() {
	if len(p.sp.Metadata) == 0 {
		return
	}
	p.open("header_type lyra_meta_t {")
	p.open("fields {")
	for _, mv := range p.sp.Metadata {
		p.line("%s : %d;", mv.Name, mv.Bits)
	}
	p.close("")
	p.close("")
	p.line("metadata lyra_meta_t meta;")
	p.line("")
}

func (p *p414Printer) parser() {
	p.open("parser start {")
	var names []string
	for _, h := range p.sp.Headers {
		if len(h.Fields) > 0 && !strings.HasSuffix(h.Type, "_t_meta") {
			names = append(names, h.Name)
		}
	}
	if p.sp.Bridge != nil && len(p.sp.Imports) > 0 {
		names = append(names, p.sp.Bridge.Name)
	}
	for _, n := range names {
		p.line("extract(%s);", n)
	}
	p.line("return ingress;")
	p.close("")
	p.line("")
}

func (p *p414Printer) registers() {
	for _, r := range p.sp.Registers {
		p.open("register %s {", r.Name)
		p.line("width : %d;", r.Bits)
		p.line("instance_count : %d;", r.Len)
		p.close("")
		p.line("")
	}
}

// operand renders an IR operand as a P4_14 field reference or literal.
func (p *p414Printer) operand(o ir.Operand) string {
	switch o.Kind {
	case ir.OpdConst:
		return fmt.Sprintf("%d", o.Const)
	case ir.OpdVar:
		if ref, ok := p.imports[o.Var]; ok {
			return ref
		}
		return "meta." + p.sp.MetaField(o.Var)
	case ir.OpdField:
		return o.Hdr + "." + o.Field
	}
	return "0"
}

func (p *p414Printer) dest(d ir.Dest) string {
	switch d.Kind {
	case ir.DestVar:
		return "meta." + p.sp.MetaField(d.Var)
	case ir.DestField:
		return d.Hdr + "." + d.Field
	}
	return "_"
}

// primitive renders one IR instruction as P4_14 action primitives.
func (p *p414Printer) primitive(in *ir.Instr) {
	switch in.Op {
	case ir.IAssign:
		p.line("modify_field(%s, %s);", p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.IBin:
		p.binPrimitive(in)
	case ir.INot:
		// Logical not of a 1-bit value: x ^ 1.
		p.line("bit_xor(%s, %s, 1);", p.dest(in.Dest), p.operand(in.Args[0]))
	case ir.ISelect:
		p.line("modify_field(%s, %s);", p.dest(in.Dest), p.operand(in.Args[2]))
		p.line("modify_field_conditionally(%s, %s, %s);",
			p.dest(in.Dest), p.operand(in.Args[0]), p.operand(in.Args[1]))
	case ir.IHash:
		p.line("modify_field_with_hash_based_offset(%s, 0, %s_fl_calc, %d);",
			p.dest(in.Dest), p.hashName(in), uint64(1)<<uint(destBits(in)))
	case ir.ILib:
		p.libPrimitive(in)
	case ir.IHeaderAdd:
		p.line("add_header(%s);", in.Table)
	case ir.IHeaderRemove:
		p.line("remove_header(%s);", in.Table)
	case ir.IPacketOp:
		p.packetOp(in)
	case ir.ILookup:
		// The value arrives as an action parameter installed by the
		// control plane; the surrounding action declares it.
		p.line("modify_field(%s, value);", p.dest(in.Dest))
	case ir.IMember:
		p.line("modify_field(%s, 1);", p.dest(in.Dest))
	case ir.IGlobalRead:
		p.line("register_read(%s, %s, %s);", p.dest(in.Dest), in.Table, p.operand(in.Args[0]))
	case ir.IGlobalWrite:
		p.line("register_write(%s, %s, %s);", in.Table, p.operand(in.Args[0]), p.operand(in.Args[1]))
	case ir.IExternInsert:
		p.line("generate_digest(LEARN_RECEIVER, %s_learn);", in.Table)
	}
}

func (p *p414Printer) binPrimitive(in *ir.Instr) {
	d := p.dest(in.Dest)
	a, b := p.operand(in.Args[0]), p.operand(in.Args[1])
	switch in.BinOp {
	case ast.OpAdd:
		p.line("add(%s, %s, %s);", d, a, b)
	case ast.OpSub:
		p.line("subtract(%s, %s, %s);", d, a, b)
	case ast.OpAnd, ast.OpLAnd:
		p.line("bit_and(%s, %s, %s);", d, a, b)
	case ast.OpOr, ast.OpLOr:
		p.line("bit_or(%s, %s, %s);", d, a, b)
	case ast.OpXor:
		p.line("bit_xor(%s, %s, %s);", d, a, b)
	case ast.OpShl:
		p.line("shift_left(%s, %s, %s);", d, a, b)
	case ast.OpShr:
		p.line("shift_right(%s, %s, %s);", d, a, b)
	case ast.OpMul:
		p.line("multiply(%s, %s, %s);", d, a, b)
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		// P4_14 actions cannot compare (Figure 5a): compute the difference
		// here; the gateway table matching the predicate interprets it
		// (zero => equal, MSB => less-than).
		p.line("subtract(%s, %s, %s); /* predicate %s */", d, a, b, in.BinOp)
	default:
		p.line("/* unsupported operator %s */", in.BinOp)
	}
}

func (p *p414Printer) libPrimitive(in *ir.Instr) {
	d := p.dest(in.Dest)
	switch in.Table {
	case "get_queue_len":
		p.line("modify_field(%s, intrinsic_metadata.deq_qdepth);", d)
	case "get_queue_time":
		p.line("modify_field(%s, intrinsic_metadata.deq_timedelta);", d)
	case "get_ingress_timestamp":
		p.line("modify_field(%s, intrinsic_metadata.ingress_global_tstamp);", d)
	case "get_egress_timestamp":
		p.line("modify_field(%s, intrinsic_metadata.egress_global_tstamp);", d)
	case "get_switch_id":
		p.line("modify_field(%s, intrinsic_metadata.switch_id);", d)
	case "get_ingress_port":
		p.line("modify_field(%s, standard_metadata.ingress_port);", d)
	default:
		p.line("/* library call %s */", in.Table)
	}
}

func (p *p414Printer) packetOp(in *ir.Instr) {
	switch in.Table {
	case "drop":
		p.line("drop();")
	case "forward":
		p.line("modify_field(standard_metadata.egress_spec, %s);", p.operand(in.Args[0]))
	case "mirror":
		p.line("clone_ingress_pkt_to_egress(LYRA_MIRROR_SESSION);")
	case "copy_to_cpu":
		p.line("clone_ingress_pkt_to_egress(LYRA_CPU_SESSION);")
	case "recirculate":
		p.line("recirculate(lyra_recirc_fl);")
	}
}

func (p *p414Printer) hashName(in *ir.Instr) string {
	return fmt.Sprintf("hash_%d", in.ID)
}

// hashDecls emits field_list/field_list_calculation pairs for hash
// instructions.
func (p *p414Printer) hashDecls() {
	for _, in := range p.sp.Instrs {
		if in.Op != ir.IHash {
			continue
		}
		name := p.hashName(in)
		p.open("field_list %s_fl {", name)
		for _, a := range in.Args {
			p.line("%s;", p.operand(a))
		}
		p.close("")
		p.open("field_list_calculation %s_fl_calc {", name)
		p.line("input { %s_fl; }", name)
		algo := "crc32"
		if in.Table == "crc16_hash" {
			algo = "crc16"
		} else if in.Table == "identity_hash" {
			algo = "identity"
		}
		p.line("algorithm : %s;", algo)
		p.line("output_width : %d;", destBits(in))
		p.close("")
		p.line("")
	}
}

func destBits(in *ir.Instr) int {
	if v := in.WritesVar(); v != nil && v.Bits > 0 {
		return v.Bits
	}
	return 32
}

// learnDecls emits the digest field lists for data-plane inserts
// (§5.8: the control plane receives the key/value via a learn digest).
func (p *p414Printer) learnDecls() {
	seen := map[string]bool{}
	for _, in := range p.sp.Instrs {
		if in.Op != ir.IExternInsert || seen[in.Table] {
			continue
		}
		seen[in.Table] = true
		p.open("field_list %s_learn {", in.Table)
		for _, a := range in.Args {
			p.line("%s;", p.operand(a))
		}
		p.close("")
		p.line("")
	}
}

func (p *p414Printer) actionsAndTables() {
	p.hashDecls()
	p.learnDecls()
	for _, pt := range p.sp.Tables {
		p.table(pt)
	}
	p.bridgeExport()
}

func (p *p414Printer) table(pt *encode.PlacedTable) {
	// Actions.
	for _, a := range pt.Actions {
		param := ""
		if pt.Kind == synth.MatchExtern && actionReadsValue(a) {
			param = "value"
		}
		p.open("action %s(%s) {", a.Name, param)
		emitted := 0
		for _, in := range a.Instrs {
			p.primitive(in)
			emitted++
		}
		if emitted == 0 {
			p.line("no_op();")
		}
		p.close("")
	}
	// Table.
	p.open("table %s {", pt.Name)
	switch pt.Kind {
	case synth.MatchExtern:
		if keys := p.keyFields(pt); len(keys) > 0 {
			p.open("reads {")
			for _, k := range keys {
				p.line("%s : exact;", k)
			}
			p.close("")
		}
	case synth.MatchPredicate:
		var reads []string
		seen := map[string]bool{}
		// Absorbed comparisons match the header field directly (the
		// control plane installs the constant).
		for _, fp := range pt.FieldPreds {
			ref := fp.Field.Hdr + "." + fp.Field.Field
			if !seen[ref] {
				seen[ref] = true
				reads = append(reads, ref)
			}
		}
		for _, v := range pt.Preds {
			ref := "meta." + p.sp.MetaField(v)
			if imp, ok := p.imports[v]; ok {
				ref = imp
			}
			if !seen[ref] {
				seen[ref] = true
				reads = append(reads, ref)
			}
		}
		if len(reads) > 0 {
			p.open("reads {")
			for _, r := range reads {
				p.line("%s : exact;", r)
			}
			p.close("")
		}
	}
	p.open("actions {")
	for _, a := range pt.Actions {
		p.line("%s;", a.Name)
	}
	p.close("")
	if pt.Entries > 0 {
		p.line("size : %d;", pt.Entries)
	}
	if pt.ShardCount > 1 {
		p.line("/* shard %d of %d of extern %s */", pt.ShardIndex+1, pt.ShardCount, pt.Extern.Name)
	}
	p.close("")
	p.line("")
}

// keyFields derives the match key references of an extern table from its
// member/lookup instructions.
func (p *p414Printer) keyFields(pt *encode.PlacedTable) []string {
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
	// No fallback when the switch hosts none of the table's match-key
	// instructions (only a miss-side action landed here): a keyless table
	// just runs its default action, whereas inventing reads on the extern's
	// tuple names would reference undeclared metadata.
	sort.Strings(out)
	return out
}

func actionReadsValue(a *synth.Action) bool {
	for _, in := range a.Instrs {
		if in.Op == ir.ILookup {
			return true
		}
	}
	return false
}

func (p *p414Printer) bridgeExport() {
	if len(p.sp.Exports) == 0 {
		return
	}
	p.open("action a_lyra_bridge_export() {")
	p.line("add_header(lyra_bridge);")
	for _, bv := range p.sp.Exports {
		p.line("modify_field(lyra_bridge.%s, meta.%s);",
			BridgeFieldName(bv.Alg, bv.Var), p.sp.MetaField(bv.Var))
	}
	p.close("")
	p.open("table t_lyra_bridge_export {")
	p.line("actions { a_lyra_bridge_export; }")
	p.close("")
	p.line("")
}

func (p *p414Printer) control() {
	apply := func(pt *encode.PlacedTable) {
		if hit, ok := p.sp.HitGuards[pt.Name]; ok {
			ref := "meta." + p.sp.MetaField(hit)
			if imp, isImp := p.imports[hit]; isImp {
				ref = imp
			}
			p.open("if (%s == 0) {", ref)
			p.line("apply(%s);", pt.Name)
			p.close("")
			return
		}
		p.line("apply(%s);", pt.Name)
	}
	p.open("control ingress {")
	for _, pt := range p.sp.Tables {
		if !p.sp.EgressTables[pt.Name] {
			apply(pt)
		}
	}
	if len(p.sp.Exports) > 0 && !p.exportsInEgress() {
		p.line("apply(t_lyra_bridge_export);")
	}
	p.close("")
	p.line("")
	// Tables reading egress-only state (queue depth, egress timestamp)
	// run in the egress pipeline (§8).
	p.open("control egress {")
	for _, pt := range p.sp.Tables {
		if p.sp.EgressTables[pt.Name] {
			apply(pt)
		}
	}
	if len(p.sp.Exports) > 0 && p.exportsInEgress() {
		p.line("apply(t_lyra_bridge_export);")
	}
	p.close("")
}

// exportsInEgress reports whether the bridge export must wait for egress
// results (some exported value is computed by an egress table).
func (p *p414Printer) exportsInEgress() bool {
	return len(p.sp.EgressTables) > 0
}

package backend

import (
	"sort"
	"strings"

	"lyra/internal/encode"
	"lyra/internal/ir"
	"lyra/internal/lang/ast"
	"lyra/internal/synth"
)

// p414Printer renders a SwitchProgram as P4_14 source.
type p414Printer struct{ text }

// EmitP414 renders the switch program as P4_14.
func EmitP414(sp *SwitchProgram) string {
	p := &p414Printer{newText(sp, "meta.", "", "lyra_bridge.")}
	p.program()
	return printed(p.b)
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
		p.open("header_type ", h.Type, " {")
		p.open("fields {")
		for _, f := range h.Fields {
			p.in().s(f.Name).s(" : ").d(f.Type.Bits).s(";").nl()
		}
		p.close()
		p.close()
		p.line("header ", h.Type, " ", h.Name, ";")
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
		p.in().s(mv.Name).s(" : ").d(mv.Bits).s(";").nl()
	}
	p.close()
	p.close()
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
		p.line("extract(", n, ");")
	}
	p.line("return ingress;")
	p.close()
	p.line("")
}

func (p *p414Printer) registers() {
	for _, r := range p.sp.Registers {
		p.open("register ", r.Name, " {")
		p.in().s("width : ").d(r.Bits).s(";").nl()
		p.in().s("instance_count : ").d(r.Len).s(";").nl()
		p.close()
		p.line("")
	}
}

// primitive renders one IR instruction as P4_14 action primitives.
func (p *p414Printer) primitive(in *ir.Instr) {
	switch in.Op {
	case ir.IAssign:
		p.in().s("modify_field(").dst(in.Dest).s(", ").op(in.Args[0]).s(");").nl()
	case ir.IBin:
		p.binPrimitive(in)
	case ir.INot:
		// Logical not of a 1-bit value: x ^ 1.
		p.in().s("bit_xor(").dst(in.Dest).s(", ").op(in.Args[0]).s(", 1);").nl()
	case ir.ISelect:
		p.in().s("modify_field(").dst(in.Dest).s(", ").op(in.Args[2]).s(");").nl()
		p.in().s("modify_field_conditionally(").dst(in.Dest).s(", ").op(in.Args[0]).s(", ").op(in.Args[1]).s(");").nl()
	case ir.IHash:
		p.in().s("modify_field_with_hash_based_offset(").dst(in.Dest).s(", 0, hash_").d(in.ID).
			s("_fl_calc, ").u(uint64(1) << uint(destBits(in))).s(");").nl()
	case ir.ILib:
		p.libPrimitive(in)
	case ir.IHeaderAdd:
		p.line("add_header(", in.Table, ");")
	case ir.IHeaderRemove:
		p.line("remove_header(", in.Table, ");")
	case ir.IPacketOp:
		p.packetOp(in)
	case ir.ILookup:
		// The value arrives as an action parameter installed by the
		// control plane; the surrounding action declares it.
		p.in().s("modify_field(").dst(in.Dest).s(", value);").nl()
	case ir.IMember:
		p.in().s("modify_field(").dst(in.Dest).s(", 1);").nl()
	case ir.IGlobalRead:
		p.in().s("register_read(").dst(in.Dest).s(", ").s(in.Table).s(", ").op(in.Args[0]).s(");").nl()
	case ir.IGlobalWrite:
		p.in().s("register_write(").s(in.Table).s(", ").op(in.Args[0]).s(", ").op(in.Args[1]).s(");").nl()
	case ir.IExternInsert:
		p.line("generate_digest(LEARN_RECEIVER, ", in.Table, "_learn);")
	}
}

func (p *p414Printer) binPrimitive(in *ir.Instr) {
	prim, predicate := "", false
	switch in.BinOp {
	case ast.OpAdd:
		prim = "add"
	case ast.OpSub:
		prim = "subtract"
	case ast.OpAnd, ast.OpLAnd:
		prim = "bit_and"
	case ast.OpOr, ast.OpLOr:
		prim = "bit_or"
	case ast.OpXor:
		prim = "bit_xor"
	case ast.OpShl:
		prim = "shift_left"
	case ast.OpShr:
		prim = "shift_right"
	case ast.OpMul:
		prim = "multiply"
	case ast.OpEq, ast.OpNe, ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe:
		// P4_14 actions cannot compare (Figure 5a): compute the difference
		// here; the gateway table matching the predicate interprets it
		// (zero => equal, MSB => less-than).
		prim, predicate = "subtract", true
	default:
		p.line("/* unsupported operator ", in.BinOp.String(), " */")
		return
	}
	p.in().s(prim).s("(").dst(in.Dest).s(", ").op(in.Args[0]).s(", ").op(in.Args[1]).s(");")
	if predicate {
		p.s(" /* predicate ").s(in.BinOp.String()).s(" */")
	}
	p.nl()
}

func (p *p414Printer) libPrimitive(in *ir.Instr) {
	src := ""
	switch in.Table {
	case "get_queue_len":
		src = "intrinsic_metadata.deq_qdepth"
	case "get_queue_time":
		src = "intrinsic_metadata.deq_timedelta"
	case "get_ingress_timestamp":
		src = "intrinsic_metadata.ingress_global_tstamp"
	case "get_egress_timestamp":
		src = "intrinsic_metadata.egress_global_tstamp"
	case "get_switch_id":
		src = "intrinsic_metadata.switch_id"
	case "get_ingress_port":
		src = "standard_metadata.ingress_port"
	default:
		p.line("/* library call ", in.Table, " */")
		return
	}
	p.in().s("modify_field(").dst(in.Dest).s(", ").s(src).s(");").nl()
}

func (p *p414Printer) packetOp(in *ir.Instr) {
	switch in.Table {
	case "drop":
		p.line("drop();")
	case "forward":
		p.in().s("modify_field(standard_metadata.egress_spec, ").op(in.Args[0]).s(");").nl()
	case "mirror":
		p.line("clone_ingress_pkt_to_egress(LYRA_MIRROR_SESSION);")
	case "copy_to_cpu":
		p.line("clone_ingress_pkt_to_egress(LYRA_CPU_SESSION);")
	case "recirculate":
		p.line("recirculate(lyra_recirc_fl);")
	}
}

// hashDecls emits field_list/field_list_calculation pairs for hash
// instructions.
func (p *p414Printer) hashDecls() {
	for _, in := range p.sp.Instrs {
		if in.Op != ir.IHash {
			continue
		}
		p.in().s("field_list hash_").d(in.ID).s("_fl {").nl()
		p.ind++
		for _, a := range in.Args {
			p.in().op(a).s(";").nl()
		}
		p.close()
		p.in().s("field_list_calculation hash_").d(in.ID).s("_fl_calc {").nl()
		p.ind++
		p.in().s("input { hash_").d(in.ID).s("_fl; }").nl()
		algo := "crc32"
		if in.Table == "crc16_hash" {
			algo = "crc16"
		} else if in.Table == "identity_hash" {
			algo = "identity"
		}
		p.line("algorithm : ", algo, ";")
		p.in().s("output_width : ").d(destBits(in)).s(";").nl()
		p.close()
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
		p.open("field_list ", in.Table, "_learn {")
		for _, a := range in.Args {
			p.in().op(a).s(";").nl()
		}
		p.close()
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
		p.open("action ", a.Name, "(", param, ") {")
		emitted := 0
		for _, in := range a.Instrs {
			p.primitive(in)
			emitted++
		}
		if emitted == 0 {
			p.line("no_op();")
		}
		p.close()
	}
	// Table.
	p.open("table ", pt.Name, " {")
	switch pt.Kind {
	case synth.MatchExtern:
		if keys := p.keyFields(pt); len(keys) > 0 {
			p.open("reads {")
			for _, k := range keys {
				p.line(k, " : exact;")
			}
			p.close()
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
			mark := p.b.Len()
			p.ref(v)
			ref := p.cut(mark)
			if !seen[ref] {
				seen[ref] = true
				reads = append(reads, ref)
			}
		}
		if len(reads) > 0 {
			p.open("reads {")
			for _, r := range reads {
				p.line(r, " : exact;")
			}
			p.close()
		}
	}
	p.open("actions {")
	for _, a := range pt.Actions {
		p.line(a.Name, ";")
	}
	p.close()
	if pt.Entries > 0 {
		p.in().s("size : ").d64(pt.Entries).s(";").nl()
	}
	if pt.ShardCount > 1 {
		p.shardNote(pt)
	}
	p.close()
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
			mark := p.b.Len()
			p.op(a)
			ref := p.cut(mark)
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
		p.in().s("modify_field(lyra_bridge.").s(bv.Field).s(", meta.").field(bv.Var).s(");").nl()
	}
	p.close()
	p.open("table t_lyra_bridge_export {")
	p.line("actions { a_lyra_bridge_export; }")
	p.close()
	p.line("")
}

func (p *p414Printer) control() {
	apply := func(pt *encode.PlacedTable) {
		if hit, ok := p.sp.HitGuards[pt.Name]; ok {
			p.in().s("if (").ref(hit).s(" == 0) {").nl()
			p.ind++
			p.line("apply(", pt.Name, ");")
			p.close()
			return
		}
		p.line("apply(", pt.Name, ");")
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
	p.close()
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
	p.close()
}

// exportsInEgress reports whether the bridge export must wait for egress
// results (some exported value is computed by an egress table).
func (p *p414Printer) exportsInEgress() bool {
	return len(p.sp.EgressTables) > 0
}

package dataplane

import (
	"encoding/binary"
	"fmt"

	"lyra/internal/ir"
	"lyra/internal/lang/ast"
)

// bitWriter packs values MSB-first at arbitrary bit widths, the way header
// fields sit on the wire. It ORs into buf, which the caller sizes (zeroed)
// for everything it will write: a write past the end is a bug and panics.
type bitWriter struct {
	buf  []byte
	nbit int
}

// write packs the low `bits` bits of v. Fields wider than 64 bits carry only
// their low 64; the leading bits stay zero.
func (w *bitWriter) write(v uint64, bits int) {
	if bits > 64 {
		w.nbit += bits - 64
		bits = 64
	}
	v &= 1<<uint(bits) - 1
	pos, total := w.nbit>>3, w.nbit&7+bits // total: bits in use from buf[pos] on, at most 71
	w.nbit += bits
	if total > 64 {
		w.buf[pos+8] |= byte(v << uint(72-total))
		v >>= uint(total - 64)
		total = 64
	}
	// Left-align behind the bits buf[pos] already holds, then OR out a byte
	// at a time; trailing zero bytes need no store.
	for v <<= uint(64 - total); v != 0; v <<= 8 {
		w.buf[pos] |= byte(v >> 56)
		pos++
	}
}

// bitReader unpacks values MSB-first.
type bitReader struct {
	buf  []byte
	nbit int
}

func (r *bitReader) remaining() int { return len(r.buf)*8 - r.nbit }

// read unpacks the next `bits` bits. Of a field wider than 64 bits only the
// low 64 are returned.
func (r *bitReader) read(bits int) (uint64, error) {
	if bits > r.remaining() {
		return 0, fmt.Errorf("dataplane: truncated packet: need %d bits, have %d", bits, r.remaining())
	}
	if bits > 64 {
		r.nbit += bits - 64
		bits = 64
	}
	pos, sh := r.nbit>>3, uint(r.nbit&7)
	r.nbit += bits
	if pos+8 <= len(r.buf) {
		v := binary.BigEndian.Uint64(r.buf[pos:]) << sh
		if int(sh)+bits > 64 { // the field spills into a ninth byte
			v |= uint64(r.buf[pos+8]) >> (8 - sh)
		}
		return v >> uint(64-bits), nil
	}
	// Within 8 bytes of the end: gather just the bytes the field touches.
	end := (r.nbit + 7) >> 3
	var v uint64
	for _, b := range r.buf[pos:end] {
		v = v<<8 | uint64(b)
	}
	return v >> uint(end*8-r.nbit) & (1<<uint(bits) - 1), nil
}

// headerLayout returns a header instance's fields in wire order (name is
// the full "hdr.field" key, slot unresolved) and their total width,
// resolving through the instance's type or a packet declaration.
func headerLayout(irp *ir.Program, instance string) (fields []wireField, totalBits int, ok bool) {
	src := irp.Source
	var decl []ast.Field
	if inst := src.Instance(instance); inst != nil && src.Header(inst.TypeName) != nil {
		decl, ok = src.Header(inst.TypeName).Fields, true
	} else {
		for _, pk := range src.Packets {
			if pk.Name == instance {
				decl, ok = pk.Fields, true
				break
			}
		}
	}
	for _, f := range decl {
		fields = append(fields, wireField{slot: -1, name: instance + "." + f.Name, bits: f.Type.Bits})
		totalBits += f.Type.Bits
	}
	return fields, totalBits, ok
}

// startState names the parse graph's entry: "start", or the first node when
// none is called that. The program must have parser nodes.
func startState(src *ast.Program) string {
	for _, pn := range src.Parsers {
		if pn.Name == "start" {
			return "start"
		}
	}
	return src.Parsers[0].Name
}

// parserNode returns the first parser node called name, or nil; "", accept
// and ingress end the walk and name no node.
func parserNode(src *ast.Program, name string) *ast.ParserNode {
	if name == "" || name == "accept" || name == "ingress" {
		return nil
	}
	for _, pn := range src.Parsers {
		if pn.Name == name {
			return pn
		}
	}
	return nil
}

// nextState evaluates a node's select against the packet's fields.
func nextState(sel *ast.SelectStmt, pkt *Packet) (string, error) {
	keyStr, err := selectKey(sel.Key)
	if err != nil {
		return "", err
	}
	v := pkt.Fields[keyStr]
	for _, c := range sel.Cases {
		if c.Value == v {
			return c.Next, nil
		}
	}
	return sel.Default, nil
}

// wireOrder returns header instances in on-the-wire order: the program's
// parse-graph order when parser_nodes exist (graph edges define what
// follows what), else source declaration order.
func wireOrder(irp *ir.Program) []string {
	src := irp.Source
	if len(src.Parsers) == 0 {
		var out []string
		for _, inst := range src.Instances {
			out = append(out, inst.Name)
		}
		for _, pk := range src.Packets {
			out = append(out, pk.Name)
		}
		return out
	}
	// Topological walk of the parse graph from "start" (or the first
	// node), collecting extracts in first-visit order.
	var out []string
	seen := map[string]bool{}
	visited := map[string]bool{}
	var visit func(name string)
	visit = func(name string) {
		pn := parserNode(src, name)
		if pn == nil || visited[name] {
			return
		}
		visited[name] = true
		for _, e := range pn.Extracts {
			if !seen[e] {
				seen[e] = true
				out = append(out, e)
			}
		}
		if pn.Select != nil {
			for _, c := range pn.Select.Cases {
				visit(c.Next)
			}
			visit(pn.Select.Default)
		}
	}
	visit(startState(src))
	// Headers never mentioned in the parse graph (added mid-pipeline, like
	// INT metadata) follow in declaration order.
	for _, inst := range src.Instances {
		if !seen[inst.Name] {
			out = append(out, inst.Name)
		}
	}
	return out
}

// Serialize packs a packet's valid headers into wire bytes, followed by
// the payload. With a parse graph, headers are emitted in the order the
// parser would extract them for this packet's select values (so the bytes
// re-parse to the same packet); headers the graph never reaches — and all
// headers in graph-less programs — follow in declaration order. The output
// is sized exactly: pass one collects the headers, pass two writes them.
func Serialize(irp *ir.Program, pkt *Packet, payload []byte) ([]byte, error) {
	var emit [][]wireField
	bits := 0
	emitted := map[string]bool{}
	add := func(h string) error {
		if emitted[h] || !pkt.Valid[h] {
			return nil
		}
		layout, n, ok := headerLayout(irp, h)
		if !ok {
			return fmt.Errorf("dataplane: no layout for header %q", h)
		}
		emitted[h] = true
		emit = append(emit, layout)
		bits += n
		return nil
	}
	src := irp.Source
	if len(src.Parsers) > 0 {
		// Emission is idempotent per header and the select values are fixed,
		// so a revisited state repeats the walk from there to no effect; a
		// walk longer than the state count has revisited one, and stops.
		node := parserNode(src, startState(src))
	walk:
		for steps := 0; node != nil && steps < len(src.Parsers); steps++ {
			for _, h := range node.Extracts {
				if !pkt.Valid[h] {
					break walk // parser would extract garbage; packet ends here
				}
				if err := add(h); err != nil {
					return nil, err
				}
			}
			if node.Select == nil {
				break
			}
			next, err := nextState(node.Select, pkt)
			if err != nil {
				return nil, err
			}
			node = parserNode(src, next)
		}
	}
	// Remaining valid headers (graph-less programs, or headers added
	// mid-pipeline that no parser state reaches) in declaration order.
	for _, h := range wireOrder(irp) {
		if err := add(h); err != nil {
			return nil, err
		}
	}
	hdr := (bits + 7) / 8 // padded to a byte boundary
	out := make([]byte, hdr+len(payload))
	w := bitWriter{buf: out}
	for _, layout := range emit {
		for _, f := range layout {
			w.write(pkt.Fields[f.name], f.bits)
		}
	}
	copy(out[hdr:], payload)
	return out, nil
}

// ParseBytes runs the program's parse graph over raw bytes, producing a
// packet with extracted fields and header validity, plus the unconsumed
// payload. Programs without parser_nodes extract every declared header in
// order while bytes remain.
func ParseBytes(irp *ir.Program, data []byte) (*Packet, []byte, error) {
	pkt := NewPacket()
	r := &bitReader{buf: data}
	src := irp.Source

	extract := func(h string) error {
		layout, _, ok := headerLayout(irp, h)
		if !ok {
			return fmt.Errorf("dataplane: no layout for header %q", h)
		}
		for _, f := range layout {
			v, err := r.read(f.bits)
			if err != nil {
				return err
			}
			pkt.Fields[f.name] = v
		}
		pkt.Valid[h] = true
		return nil
	}

	if len(src.Parsers) == 0 {
		for _, h := range wireOrder(irp) {
			if _, need, _ := headerLayout(irp, h); r.remaining() < need {
				break
			}
			if err := extract(h); err != nil {
				return nil, nil, err
			}
		}
	} else {
		// A cycle terminates because every trip extracts (the checker
		// rejects cycles that extract nothing) and the bytes run out.
		for state := startState(src); state != "" && state != "accept" && state != "ingress"; {
			node := parserNode(src, state)
			if node == nil {
				return nil, nil, fmt.Errorf("dataplane: parse state %q undefined", state)
			}
			for _, h := range node.Extracts {
				if err := extract(h); err != nil {
					return nil, nil, err
				}
			}
			if node.Select == nil {
				break
			}
			var err error
			if state, err = nextState(node.Select, pkt); err != nil {
				return nil, nil, err
			}
		}
	}
	// Payload: remaining whole bytes.
	off := (r.nbit + 7) / 8
	if off > len(data) {
		off = len(data)
	}
	return pkt, data[off:], nil
}

// selectKey renders a parser select key expression as "hdr.field".
func selectKey(e ast.Expr) (string, error) {
	fa, ok := e.(*ast.FieldAccess)
	if !ok {
		return "", fmt.Errorf("dataplane: select key must be a header field, got %s", ast.ExprString(e))
	}
	base, ok := fa.X.(*ast.Ident)
	if !ok {
		return "", fmt.Errorf("dataplane: select key base must be a header instance")
	}
	return base.Name + "." + fa.Name, nil
}

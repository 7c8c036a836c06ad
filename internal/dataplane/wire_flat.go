package dataplane

// The bytes-native wire path. A WireCodec precompiles a program's header
// layouts and parse graph against an engine Layout once, so raw bytes
// parse directly into FlatPacket slots and serialize back out without the
// map-based Packet detour of wire.go. The codec mirrors ParseBytes /
// Serialize bit-for-bit (same MSB-first packing, same parse-graph walk,
// same stop-on-invalid emit semantics, same error messages); wire_flat
// fuzz tests hold the two paths to byte-level agreement.

import (
	"fmt"
	"slices"

	"lyra/internal/ir"
)

// wireField is one header field resolved against the layout: its slot (or
// -1 for fields the layout never saw, which overflow-map like the
// interpreter), its full "hdr.field" key, its wire width, and the slab
// word and mask of its present bit.
type wireField struct {
	slot int
	name string
	bits int
	pw   int
	pm   uint64
}

// wireHeader is one header instance's precompiled wire image.
type wireHeader struct {
	name       string
	vw, sw     int    // slab words of its valid and valid-set bits
	vm, sm     uint64 // and their masks; vm is 0 when the layout has no validity slot for it
	fields     []wireField
	totalBits  int
	haveLayout bool // headerLayout resolved; false reproduces wire.go's error lazily
}

// Next-state markers beyond real state indices.
const (
	wireStateEnd       = -1 // "", accept, ingress — parsing stops cleanly
	wireStateUndefined = -2 // named state has no parser node
)

// wireCase is one precompiled select case.
type wireCase struct {
	value    uint64
	next     int
	nextName string
}

// wireState is one precompiled parser state.
type wireState struct {
	name        string
	extracts    []int // indices into WireCodec.headers
	hasSelect   bool
	keyErr      error // selectKey failure, surfaced when the state is reached
	keySlot     int
	keyName     string
	cases       []wireCase
	defaultNext int
	defaultName string
}

// WireCodec is the precompiled bytes<->FlatPacket translator for one
// engine layout. It is immutable after construction and safe to share
// across lanes; ParseBytesFlat allocates only the packet's struct and slab.
type WireCodec struct {
	lay       *Layout
	headers   []wireHeader
	headerIdx map[string]int
	states    []wireState
	start     int   // index into states; wireStateEnd when graph-less
	order     []int // wireOrder as header indices
}

// NewWireCodec precompiles the program's wire format against a layout.
func NewWireCodec(irp *ir.Program, lay *Layout) *WireCodec {
	c := &WireCodec{lay: lay, headerIdx: map[string]int{}, start: wireStateEnd}
	for _, h := range wireOrder(irp) {
		c.order = append(c.order, c.ensureHeader(irp, h))
	}
	src := irp.Source
	if len(src.Parsers) == 0 {
		return c
	}
	// First parser node wins on duplicate names, as in wire.go's scans.
	idx := map[string]int{}
	for _, pn := range src.Parsers {
		if _, ok := idx[pn.Name]; ok {
			continue
		}
		idx[pn.Name] = len(c.states)
		c.states = append(c.states, wireState{name: pn.Name})
	}
	resolve := func(name string) (int, string) {
		if name == "" || name == "accept" || name == "ingress" {
			return wireStateEnd, name
		}
		if si, ok := idx[name]; ok {
			return si, name
		}
		return wireStateUndefined, name
	}
	compiled := make([]bool, len(c.states))
	for _, pn := range src.Parsers {
		si := idx[pn.Name]
		if compiled[si] {
			continue // later duplicate; the first node wins, as in wire.go
		}
		compiled[si] = true
		st := &c.states[si]
		for _, h := range pn.Extracts {
			st.extracts = append(st.extracts, c.ensureHeader(irp, h))
		}
		if pn.Select != nil {
			st.hasSelect = true
			keyStr, err := selectKey(pn.Select.Key)
			if err != nil {
				st.keyErr = err
			} else {
				st.keyName = keyStr
				st.keySlot = -1
				if s, ok := lay.fieldSlot[keyStr]; ok {
					st.keySlot = s
				}
			}
			for _, cs := range pn.Select.Cases {
				next, name := resolve(cs.Next)
				st.cases = append(st.cases, wireCase{value: cs.Value, next: next, nextName: name})
			}
			st.defaultNext, st.defaultName = resolve(pn.Select.Default)
		}
	}
	start := "start"
	if _, ok := idx["start"]; !ok {
		start = src.Parsers[0].Name
	}
	c.start = idx[start]
	return c
}

// ensureHeader interns a header instance's precompiled layout.
func (c *WireCodec) ensureHeader(irp *ir.Program, name string) int {
	if hi, ok := c.headerIdx[name]; ok {
		return hi
	}
	wh := wireHeader{name: name}
	if s, ok := c.lay.validSlot[name]; ok {
		wh.vw, wh.vm = c.lay.bit(headerValid, s)
		wh.sw, wh.sm = c.lay.bit(headerValidSet, s)
	}
	wh.fields, wh.totalBits, wh.haveLayout = headerLayout(irp, name)
	for i := range wh.fields {
		if s, ok := c.lay.fieldSlot[wh.fields[i].name]; ok {
			wh.fields[i].slot = s
			wh.fields[i].pw, wh.fields[i].pm = c.lay.bit(fieldPresent, s)
		}
	}
	hi := len(c.headers)
	c.headerIdx[name] = hi
	c.headers = append(c.headers, wh)
	return hi
}

// fieldVal reads a precompiled field reference off a flat packet,
// matching the map semantics (absent => 0).
func (c *WireCodec) fieldVal(f *FlatPacket, slot int, name string) uint64 {
	if slot >= 0 {
		return f.w[slot]
	}
	if f.ov == nil {
		return 0
	}
	return f.ov.fields[name]
}

// headerValid reports whether a header is present on the packet.
func (c *WireCodec) headerValid(f *FlatPacket, h *wireHeader) bool {
	if h.vm != 0 {
		return f.w[h.vw]&h.vm != 0
	}
	return f.ov != nil && f.ov.valid[h.name]
}

// extract reads one header's fields off the bit stream into the packet's
// slots and marks it valid.
func (c *WireCodec) extract(f *FlatPacket, r *bitReader, h *wireHeader) error {
	if !h.haveLayout {
		return fmt.Errorf("dataplane: no layout for header %q", h.name)
	}
	for i := range h.fields {
		fl := &h.fields[i]
		v, err := r.read(fl.bits)
		if err != nil {
			return err
		}
		if fl.slot >= 0 {
			f.w[fl.slot] = v
			f.w[fl.pw] |= fl.pm
		} else {
			f.SetField(fl.name, v)
		}
	}
	if h.vm != 0 {
		f.w[h.vw] |= h.vm
		f.w[h.sw] |= h.sm
	} else {
		f.over().valid[h.name] = true
	}
	return nil
}

// ParseBytesFlat runs the precompiled parse graph over raw bytes,
// depositing fields directly into a fresh FlatPacket's slots, and returns
// the unconsumed payload. Behavior is bit-identical to ParseBytes
// followed by Flatten.
func (c *WireCodec) ParseBytesFlat(data []byte) (*FlatPacket, []byte, error) {
	f := c.lay.newFlat()
	r := bitReader{buf: data}
	if len(c.states) == 0 {
		for _, hi := range c.order {
			h := &c.headers[hi]
			if h.haveLayout && r.remaining() < h.totalBits {
				break
			}
			if err := c.extract(f, &r, h); err != nil {
				return nil, nil, err
			}
		}
	} else {
		si := c.start
		for si >= 0 {
			st := &c.states[si]
			for _, hi := range st.extracts {
				if err := c.extract(f, &r, &c.headers[hi]); err != nil {
					return nil, nil, err
				}
			}
			if !st.hasSelect {
				break
			}
			if st.keyErr != nil {
				return nil, nil, st.keyErr
			}
			v := c.fieldVal(f, st.keySlot, st.keyName)
			next, name := st.defaultNext, st.defaultName
			for i := range st.cases {
				if st.cases[i].value == v {
					next, name = st.cases[i].next, st.cases[i].nextName
					break
				}
			}
			if next == wireStateUndefined {
				return nil, nil, fmt.Errorf("dataplane: parse state %q undefined", name)
			}
			si = next
		}
	}
	off := (r.nbit + 7) / 8
	if off > len(data) {
		off = len(data)
	}
	return f, data[off:], nil
}

// SerializeFlat packs a flat packet's valid headers into wire bytes
// followed by the payload, reading field values straight from the slot
// arrays. Byte-identical to Serialize over the equivalent map packet, and
// like it two-pass: the output is the call's one allocation, sized exactly
// (callers that retain outputs pay for capacity, not length).
func (c *WireCodec) SerializeFlat(f *FlatPacket, payload []byte) ([]byte, error) {
	var scratch [16]int // backs emit on the stack; a 17th header spills to the heap
	emit, bits := scratch[:0], 0
	add := func(hi int) error {
		h := &c.headers[hi]
		if !c.headerValid(f, h) || slices.Contains(emit, hi) {
			return nil
		}
		if !h.haveLayout {
			return fmt.Errorf("dataplane: no layout for header %q", h.name)
		}
		emit = append(emit, hi)
		bits += h.totalBits
		return nil
	}
	// The walk stops after len(states) steps: see Serialize on cycles.
	si := c.start
walk:
	for steps := 0; si >= 0 && steps < len(c.states); steps++ {
		st := &c.states[si]
		for _, hi := range st.extracts {
			if !c.headerValid(f, &c.headers[hi]) {
				break walk // parser would extract garbage; packet ends here
			}
			if err := add(hi); err != nil {
				return nil, err
			}
		}
		if !st.hasSelect {
			break
		}
		if st.keyErr != nil {
			return nil, st.keyErr
		}
		v := c.fieldVal(f, st.keySlot, st.keyName)
		si = st.defaultNext // wireStateUndefined ends the walk silently, as in Serialize
		for i := range st.cases {
			if st.cases[i].value == v {
				si = st.cases[i].next
				break
			}
		}
	}
	for _, hi := range c.order {
		if err := add(hi); err != nil {
			return nil, err
		}
	}
	hdr := (bits + 7) / 8 // padded to a byte boundary
	out := make([]byte, hdr+len(payload))
	w := bitWriter{buf: out}
	for _, hi := range emit {
		fields := c.headers[hi].fields
		for i := range fields {
			fl := &fields[i]
			w.write(c.fieldVal(f, fl.slot, fl.name), fl.bits)
		}
	}
	copy(out[hdr:], payload)
	return out, nil
}

// Codec returns the engine's bytes-native wire codec, precompiling the
// program's parse graph against the engine layout on first use.
func (e *Engine) Codec() *WireCodec {
	if e.codec == nil {
		e.codec = NewWireCodec(e.dep.Plan.Input.IR, e.layout)
	}
	return e.codec
}

// ParseBytesFlat parses raw bytes directly into an engine FlatPacket.
func (e *Engine) ParseBytesFlat(data []byte) (*FlatPacket, []byte, error) {
	return e.Codec().ParseBytesFlat(data)
}

// SerializeFlat packs an engine FlatPacket back into wire bytes.
func (e *Engine) SerializeFlat(f *FlatPacket, payload []byte) ([]byte, error) {
	return e.Codec().SerializeFlat(f, payload)
}

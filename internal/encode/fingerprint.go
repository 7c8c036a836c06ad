package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"lyra/internal/asic"
	"lyra/internal/ir"
	"lyra/internal/synth"
	"lyra/internal/topo"
)

// switchHashes is the memoised pair of per-switch content hashes of a plan,
// with the plan-wide bridge facts they are computed from, all made together on
// first use.
//
// The shape hash is name-free: chip model, placed instruction IDs per
// algorithm, table geometry (entries and shard index/count), bridge exports
// and imports, and — for switches that import or export anything — the
// network-wide lyra_bridge layout. It covers everything the emitted Code,
// chip re-admission and the lint depend on; the switch name occurs only in
// the first comment line of Code. Two switches of one plan with equal shapes
// therefore get the same program text and the same verification verdict,
// which is what lets translation and verification run once per shape.
//
// A shape is a function of the switch's template slot within one plan: the
// slot decides everything local, the class fingerprint proves every binding of
// the template has the same chip model at the slot, and whether a read is an
// import depends on the switch only when a single switch exports the variable
// — whose template is then bound once, so its slots have one switch each. So
// the part of a shape no plan can change is rendered once per slot, when the
// template is extracted (slot.text), shapes are kept per template slot, and
// Shape looks a switch's slot up. The exception is a binding that ranks its
// shards apart from its template (Binding.tables): its shapes are its own,
// and the slots it ranks apart render their text from its own tables.
//
// The full fingerprint adds what the control-plane stub lists on top of the
// shape: for every split extern on the switch, the hosts and entry counts of
// the switch's own shard group. Two plans assigning a switch identical full
// fingerprints generate byte-identical code and a byte-identical
// control-plane stub for it, so incremental recompilation can keep the
// artifact, and its verification report, without touching the device.
//
// Both hash only what the switch itself executes or documents. In particular
// the bridge layout is a function of the set of exported variables alone, so
// neither the number of switches exporting a variable nor their names is part
// of any other switch's hash, and imports are rendered explicitly instead of
// being implied by that number.
type switchHashes struct {
	once         sync.Once
	layout       []BridgeVar
	bridgeDigest string
	exporters    map[*ir.Var]exporter
	shapes       map[shapeSource][]string // per slot; "" for a slot hosting nothing
	full         map[string]string
	// rehashed lists, sorted, the switches whose hashes were not taken over
	// from the plan followed, when carried says the others' were.
	rehashed []string
	carried  bool
	// from, keptAt and dropped, set by a solve that carried components over,
	// name the hashes of the plan they came from, which bindings those are,
	// and the bindings of that plan not taken over; they are dropped once
	// used.
	from    *switchHashes
	keptAt  []bool
	dropped []*Binding
}

// carry notes that the bindings marked in keptAt are prev's own and that
// dropped are the bindings of prev not taken over, so that this plan's
// switches' hashes can be prev's where nothing plan-wide they depend on moved.
func (h *switchHashes) carry(prev *Plan, keptAt []bool, dropped []*Binding) {
	prev.hashes.once.Do(prev.hashSwitches)
	h.from, h.keptAt, h.dropped = &prev.hashes, keptAt, dropped
}

// reusable reports whether the hashes of a template or of a binding carried
// over from the plan from belongs to are exactly what they were there.
// Within the component nothing changed; of the rest of the plan its hash sees
// the bridge layout and, per variable it reads, whether another switch exports
// it.
func (h *switchHashes) reusable(from *switchHashes) bool {
	if from.bridgeDigest != h.bridgeDigest || len(from.exporters) != len(h.exporters) {
		return false
	}
	for v, e := range h.exporters {
		was, ok := from.exporters[v]
		if !ok || (was.count > 1) != (e.count > 1) || (e.count == 1 && was.only != e.only) {
			return false
		}
	}
	return true
}

// exporter records, for one bridged variable, how many switches export it and
// (when unique) which one, so "some other switch exports v" — the rule a
// switch imports by — resolves in O(1) per read. Every exporter of a variable
// carries the same BridgeVar: it is a function of the variable and its writer.
// A variable is one lyra_bridge field: an algorithm's lowering mints one Var
// per (name, version), and a slot exports each variable it writes once.
type exporter struct {
	bv    BridgeVar
	count int
	only  string
}

func (e exporter) importedBy(sw string) bool { return e.count > 1 || (e.count == 1 && e.only != sw) }

// Imports returns the bridge variables a switch placing instrs reads from
// upstream, sorted by variable. A variable that is also defined locally is
// still imported when another switch exports it: shard copies of a split
// table need the upstream hit signal and value at switch entry (the local
// copy overwrites them only when it actually executes).
func (p *Plan) Imports(sw string, instrs []*ir.Instr) []BridgeVar {
	p.hashes.once.Do(p.hashSwitches)
	var seen ir.IDSet
	var out []BridgeVar
	for _, in := range instrs {
		in.EachRead(func(v *ir.Var) {
			if e := p.hashes.exporters[v]; e.importedBy(sw) && seen.Add(in.Alg, int(v.ID)) {
				out = append(out, e.bv)
			}
		})
	}
	ir.SortByVar(out, func(bv BridgeVar) (string, *ir.Var) { return "", bv.Var })
	return out
}

// Shape returns the name-free shape hash of a switch, "" when the plan places
// nothing on it.
func (p *Plan) Shape(sw string) string {
	p.hashes.once.Do(p.hashSwitches)
	if r := p.locate(sw); r.b != nil {
		return p.hashes.shapes[r.b.shapeSource()][r.i]
	}
	return ""
}

// Fingerprints returns the full fingerprint of every switch hosting anything
// in the plan. The map is memoised on the plan and shared: do not modify it.
// Fingerprints are only ever compared to fingerprints computed by the same
// code in the same process, so the hashed byte layout is free to change as
// long as it stays injective on the hashed facts.
func (p *Plan) Fingerprints() map[string]string {
	p.hashes.once.Do(p.hashSwitches)
	return p.hashes.full
}

// Rehashed reports which switches may hash differently here than in the plan
// this one's solve followed (Options.Prev): sorted, the switches of the
// bindings the solve dropped from that plan or made anew. Every other switch
// has the shape and full fingerprint it had there. When carried is false —
// the solve followed no plan, or a plan-wide fact a hash reads moved — any
// switch may differ and the list is nil. The list is shared: do not modify it.
func (p *Plan) Rehashed() (switches []string, carried bool) {
	p.hashes.once.Do(p.hashSwitches)
	return p.hashes.rehashed, p.hashes.carried
}

// BridgeLayout returns the network-wide lyra_bridge field list: every
// exported variable once, ordered by algorithm and then by variable, as a
// slot's exports are (bridgeOrder). The list is a function of the set of
// exported variables, so neither a fault that leaves that set alone nor a
// renaming of switches moves it. backend.Build lays the header out from this
// list and the switch hashes digest it, so the two cannot disagree about what
// the layout is. The list is memoised on the plan and shared: do not modify
// it.
func (p *Plan) BridgeLayout() []BridgeVar {
	p.hashes.once.Do(p.hashSwitches)
	return p.hashes.layout
}

// exportSum is a template's share of one bridged variable's facts, summed when
// the template is extracted: n counts the slots exporting the variable, and
// slot, pos is the last export of it — the one, when n is 1.
type exportSum struct{ slot, pos, n int32 }

// sumExports sums the exports of a template's slots. A template bridges a
// handful of variables, so each is found by a scan of those seen.
func sumExports(slots []slot) []exportSum {
	var buf [16]exportSum
	sums := buf[:0]
	for i, s := range slots {
		for pos, bv := range s.bridges {
			at := exportSum{int32(i), int32(pos), 1}
			if k := slices.IndexFunc(sums, func(e exportSum) bool { return slots[e.slot].bridges[e.pos].Var == bv.Var }); k < 0 {
				sums = append(sums, at)
			} else {
				sums[k] = exportSum{at.slot, at.pos, sums[k].n + 1}
			}
		}
	}
	return slices.Clone(sums)
}

// export returns the bridge variable a sum's export carries.
func (t *Template) export(e exportSum) BridgeVar { return t.slots[e.slot].bridges[e.pos] }

// bridgeFacts derives every bridged variable's exporters from the bindings'
// export sums, in O(bindings × bridged variables), and lays the fields out.
func (h *switchHashes) bridgeFacts(bound []*Binding) {
	h.exporters = map[*ir.Var]exporter{}
	for _, bd := range bound {
		t := bd.Template
		for _, ve := range t.exports {
			bv := t.export(ve)
			h.exporters[bv.Var] = exporter{bv, h.exporters[bv.Var].count + int(ve.n), bd.Switches[ve.slot]}
		}
	}
	h.layFields()
}

// layFields lays every exported variable out once, in bridgeOrder, and
// digests the layout.
func (h *switchHashes) layFields() {
	h.layout = make([]BridgeVar, 0, len(h.exporters))
	for _, e := range h.exporters {
		h.layout = append(h.layout, e.bv)
	}
	ir.SortByVar(h.layout, bridgeOrder)
	var b []byte
	for _, bv := range h.layout {
		b = appendBridgeVar(b, bv)
		b = append(b, ',')
	}
	h.bridgeDigest = hexSum(b)
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// shapeSource is what the slot shapes of a binding are a function of within
// one plan: its template, and the binding itself when it ranks shards apart
// from the template.
type shapeSource struct {
	t  *Template
	bd *Binding
}

func (bd *Binding) shapeSource() shapeSource {
	if bd.tables != nil {
		return shapeSource{bd.Template, bd}
	}
	return shapeSource{t: bd.Template}
}

// shapes hashes the shape of every slot of the template as bound by bd, ""
// for a slot hosting nothing: the slot's text, the reads the switch imports
// and, for a switch that imports or exports anything, the bridge layout
// digest. A read is named by its place among the variables the slot's
// instructions read, each once, in the order first read, which the text
// fixes. Any binding of the same shapeSource in the plan gives the same
// hashes (see switchHashes). b and reads are reused scratch.
func (bd *Binding) shapes(net *topo.Network, h *switchHashes, b *[]byte, reads *[]*ir.Var) []string {
	out := make([]string, len(bd.Template.slots))
	for i := range bd.Template.slots {
		s := &bd.Template.slots[i]
		if len(s.instrs) == 0 {
			continue
		}
		sw := bd.Switches[i]
		text := s.text
		if bd.tables != nil && bd.tables[i] != nil {
			own := bd.slot(i)
			*b = own.appendText((*b)[:0], net.Switch(sw).ASIC)
			text = sha256.Sum256(*b)
		}
		*b = append((*b)[:0], text[:]...)
		*reads = (*reads)[:0]
		for _, in := range s.instrs {
			in.EachRead(func(v *ir.Var) {
				if !slices.Contains(*reads, v) {
					*reads = append(*reads, v)
				}
			})
		}
		imports := false
		for k, v := range *reads {
			if h.exporters[v].importedBy(sw) {
				*b = append(*b, "import="...)
				*b = strconv.AppendInt(*b, int64(k), 10)
				*b = append(*b, '\n')
				imports = true
			}
		}
		// A switch that imports or exports anything declares and parses the
		// whole lyra_bridge header; the others are not invalidated by layout
		// changes.
		if len(s.bridges) > 0 || imports {
			*b = append(*b, "bridge="...)
			*b = append(*b, h.bridgeDigest...)
			*b = append(*b, '\n')
		}
		out[i] = hexSum(*b)
	}
	return out
}

// appendText renders a slot's name-free share of the shape hash input, the
// part no plan can change: its chip model, the placed instruction IDs per
// algorithm in program order, the table geometry and the exports.
func (s *slot) appendText(b []byte, model *asic.Model) []byte {
	// %+v covers every capacity fact admission consults, so a degraded chip
	// that kept its name still changes the hash.
	b = fmt.Appendf(b, "model=%+v\n", model)
	for k, in := range s.instrs {
		if k == 0 || in.Alg != s.instrs[k-1].Alg {
			b = append(b, "alg="...)
			b = append(b, in.Alg...)
			b = append(b, " ids="...)
		}
		b = strconv.AppendInt(b, int64(in.ID), 10)
		b = append(b, ',')
		if k == len(s.instrs)-1 || in.Alg != s.instrs[k+1].Alg {
			b = append(b, '\n')
		}
	}
	for _, pt := range s.tables {
		b = append(b, "table="...)
		b = append(b, pt.Name...)
		b = append(b, " entries="...)
		b = strconv.AppendInt(b, pt.Entries, 10)
		b = append(b, " shard="...)
		b = strconv.AppendInt(b, int64(pt.ShardIndex), 10)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(pt.ShardCount), 10)
		b = append(b, '\n')
	}
	for _, bv := range s.bridges {
		b = append(b, "export="...)
		b = appendBridgeVar(b, bv)
		b = append(b, '\n')
	}
	return b
}

func appendBridgeVar(b []byte, bv BridgeVar) []byte {
	b = append(b, bv.Alg...)
	b = append(b, '.')
	b = append(b, bv.Var.String()...)
	b = append(b, " bits="...)
	b = strconv.AppendInt(b, int64(bv.Bits), 10)
	if bv.Hit {
		b = append(b, " hit"...)
	}
	return b
}

// hashSwitches fills p.hashes. The bridge facts come from the bindings'
// export sums. A plan whose solve carried bindings over, where the plan-wide
// facts a hash reads are as they were in the plan it follows (reusable), takes
// that plan's shapes of every template that plan bound and that plan's full
// fingerprints of every switch but those of the dropped and the made bindings.
// Every other shape is hashed from its slot's text. A full fingerprint is its
// slot's shape plus one digest per shard group. The rendering is hand-rolled
// appends into one reused buffer.
func (p *Plan) hashSwitches() {
	h := &p.hashes
	from, keptAt, dropped := h.from, h.keptAt, h.dropped
	h.from, h.keptAt, h.dropped = nil, nil, nil
	h.bridgeFacts(p.bound)
	h.carried = from != nil && h.reusable(from)

	h.shapes = map[shapeSource][]string{}
	var b []byte
	var reads []*ir.Var
	hosting := 0
	for _, bd := range p.bound {
		t, src := bd.Template, bd.shapeSource()
		switch {
		case h.shapes[src] != nil:
		case h.carried && from.shapes[src] != nil:
			h.shapes[src] = from.shapes[src]
		default:
			h.shapes[src] = bd.shapes(p.Input.Net, h, &b, &reads)
		}
		if !h.carried {
			for i := range t.slots {
				if len(t.slots[i].instrs) > 0 {
					hosting++
				}
			}
		}
	}
	if h.carried {
		h.full = make(map[string]string, len(from.full))
		for sw, fp := range from.full { // not maps.Clone, which takes twice as long (go1.24)
			h.full[sw] = fp
		}
		for _, bd := range dropped {
			h.rehashed = append(h.rehashed, bd.Switches...)
			for _, sw := range bd.Switches {
				delete(h.full, sw)
			}
		}
		for k, bd := range p.bound {
			if !keptAt[k] {
				h.rehashed = append(h.rehashed, bd.Switches...)
			}
		}
		slices.Sort(h.rehashed)
		h.rehashed = slices.Compact(h.rehashed)
	} else {
		h.full = make(map[string]string, hosting)
	}
	groupDigests := map[string]string{} // extern -> digest of the current binding's shard group
	for k, bd := range p.bound {
		if h.carried && keptAt[k] {
			continue // same component, same surroundings: same hashes
		}
		clear(groupDigests)
		shapes := h.shapes[bd.shapeSource()]
		for i, sw := range bd.Switches {
			shape := shapes[i]
			if shape == "" {
				continue
			}
			// The full fingerprint: the shape plus the shard groups the
			// control-plane stub lists.
			b = append(b[:0], shape...)
			for _, pt := range bd.slot(i).tables {
				if pt.Kind != synth.MatchExtern || pt.ShardCount <= 1 {
					continue
				}
				name := pt.Extern.Name
				d, ok := groupDigests[name]
				if !ok {
					d = bd.digestShardGroup(name)
					groupDigests[name] = d
				}
				b = append(b, " shards="...)
				b = append(b, name...)
				b = append(b, ':')
				b = append(b, d...)
			}
			if len(b) > len(shape) {
				h.full[sw] = hexSum(b)
			} else {
				h.full[sw] = shape
			}
		}
	}
}

// digestShardGroup hashes the hosts and entries of the binding's shard group
// of one extern, in switch order.
func (bd *Binding) digestShardGroup(extern string) string {
	var b []byte
	for _, s := range bd.groups[extern] {
		b = append(b, s.Switch...)
		b = append(b, '=')
		b = strconv.AppendInt(b, s.Entries, 10)
		b = append(b, ',')
	}
	return hexSum(b)
}

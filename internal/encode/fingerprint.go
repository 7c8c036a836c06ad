package encode

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
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
// shapes are kept per template slot, and Shape looks a switch's slot up.
//
// The full fingerprint adds what the control-plane stub lists on top of the
// shape: for every split extern on the switch, the hosts and entry counts of
// the switch's own shard group. Two plans assigning a switch identical full
// fingerprints generate byte-identical code and a byte-identical
// control-plane stub for it, so incremental recompilation can keep the
// artifact, and its verification report, without touching the device.
//
// Both hash only what the switch itself executes or documents. In particular
// the bridge layout is hashed as the de-duplicated field list, so the number
// of switches exporting a field is not part of any other switch's hash, and
// imports are rendered explicitly instead of being implied by that number.
type switchHashes struct {
	once         sync.Once
	layout       []BridgeVar
	bridgeDigest string
	exporters    map[*ir.Var]exporter
	shapes       map[*Template][]string // per slot; "" for a slot hosting nothing
	full         map[string]string
	// from and keptAt, set by a solve that carried components over, name the
	// hashes of the plan they came from and which bindings those are; they
	// are dropped once used.
	from   *switchHashes
	keptAt []bool
}

// carry notes that the bindings marked in keptAt are prev's own, so that
// their switches' hashes can be prev's too where nothing plan-wide they
// depend on moved.
func (h *switchHashes) carry(prev *Plan, keptAt []bool) {
	prev.hashes.once.Do(prev.hashSwitches)
	h.from, h.keptAt = &prev.hashes, keptAt
}

// reusable reports whether the hashes of a template or of a binding carried
// over from the plan h.from belongs to are exactly what they were there.
// Within the component nothing changed; of the rest of the plan its hash sees
// the bridge layout and, per variable it reads, whether another switch exports
// it.
func (h *switchHashes) reusable() bool {
	if h.from == nil || h.from.bridgeDigest != h.bridgeDigest || len(h.from.exporters) != len(h.exporters) {
		return false
	}
	for v, e := range h.exporters {
		was, ok := h.from.exporters[v]
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
	seen := map[*ir.Var]bool{}
	var out []BridgeVar
	for _, in := range instrs {
		in.EachRead(func(v *ir.Var) {
			if e := p.hashes.exporters[v]; !seen[v] && e.importedBy(sw) {
				seen[v] = true
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
	if r := p.at.lookup(sw); r.b != nil {
		return p.hashes.shapes[r.b.Template][r.i]
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

// BridgeLayout returns the network-wide lyra_bridge field list: every
// exported variable once, in first-export order over the sorted exporting
// switches. backend.Build lays the header out from this list and the switch
// hashes digest it, so the two cannot disagree about what the layout is. The
// list is memoised on the plan and shared: do not modify it.
func (p *Plan) BridgeLayout() []BridgeVar {
	p.hashes.once.Do(p.hashSwitches)
	return p.hashes.layout
}

// bridgeFacts derives, from the bindings, the bridge layout — a variable's
// first export is its least (switch, position) pair — and every bridged
// variable's exporters.
func (p *Plan) bridgeFacts() ([]BridgeVar, map[*ir.Var]exporter) {
	type field struct {
		alg, name string
		ver       int
	}
	type first struct {
		bv  BridgeVar
		sw  string
		pos int
	}
	firsts := map[field]first{}
	exporters := map[*ir.Var]exporter{}
	for _, bd := range p.bound {
		for i, sw := range bd.Switches {
			for pos, bv := range bd.Template.slots[i].bridges {
				exporters[bv.Var] = exporter{bv, exporters[bv.Var].count + 1, sw}
				f := field{bv.Alg, bv.Var.Name, bv.Var.Ver}
				if was, seen := firsts[f]; !seen || sw < was.sw || (sw == was.sw && pos < was.pos) {
					firsts[f] = first{bv, sw, pos}
				}
			}
		}
	}
	order := make([]first, 0, len(firsts))
	for _, f := range firsts {
		order = append(order, f)
	}
	sort.Slice(order, func(i, j int) bool {
		return order[i].sw < order[j].sw || (order[i].sw == order[j].sw && order[i].pos < order[j].pos)
	})
	layout := make([]BridgeVar, len(order))
	for i, f := range order {
		layout[i] = f.bv
	}
	return layout, exporters
}

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// shapes renders the shape hash of every slot of the template as bound by bd,
// "" for a slot hosting nothing; any binding of the template in the plan gives
// the same hashes (see switchHashes). models memoises the model rendering
// across templates, and b is the reused render buffer.
func (bd *Binding) shapes(net *topo.Network, h *switchHashes, models map[*asic.Model]string, b *[]byte) []string {
	type readVar struct {
		v    *ir.Var
		name string // "alg.var"
	}
	out := make([]string, len(bd.Template.slots))
	var reads []readVar
	seen := map[*ir.Var]bool{}
	for i := range bd.Template.slots {
		s := &bd.Template.slots[i]
		if len(s.instrs) == 0 {
			continue
		}
		sw := bd.Switches[i]
		model := net.Switch(sw).ASIC
		m, ok := models[model]
		if !ok {
			// %+v covers every capacity fact admission consults, so a
			// degraded chip that kept its name still changes the hash.
			sum := sha256.New()
			fmt.Fprintf(sum, "%+v", *model)
			m = "model=" + hex.EncodeToString(sum.Sum(nil)) + "\n"
			models[model] = m
		}
		*b = s.appendLocal(append((*b)[:0], m...))
		// The variables the placed instructions read, by rendered name: the
		// switch imports those some other switch exports.
		reads = reads[:0]
		clear(seen)
		for _, in := range s.instrs {
			for _, v := range in.Reads() {
				if !seen[v] {
					seen[v] = true
					reads = append(reads, readVar{v, in.Alg + "." + v.String()})
				}
			}
		}
		sort.Slice(reads, func(a, b int) bool { return reads[a].name < reads[b].name })
		imports, last := false, ""
		for _, r := range reads {
			if h.exporters[r.v].importedBy(sw) && r.name != last {
				*b = append(*b, "import="...)
				*b = append(*b, r.name...)
				*b = append(*b, '\n')
				imports, last = true, r.name
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

// appendLocal renders the slot's own, name-free share of the shape hash
// input: the placed instruction IDs per algorithm in name order, the table
// geometry and the exports.
func (s *slot) appendLocal(b []byte) []byte {
	byAlg := map[string][]int{}
	for _, in := range s.instrs {
		byAlg[in.Alg] = append(byAlg[in.Alg], in.ID)
	}
	for _, alg := range sortedKeys(byAlg) {
		ids := byAlg[alg]
		sort.Ints(ids)
		b = append(b, "alg="...)
		b = append(b, alg...)
		b = append(b, " ids="...)
		for _, id := range ids {
			b = strconv.AppendInt(b, int64(id), 10)
			b = append(b, ',')
		}
		b = append(b, '\n')
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

// hashSwitches fills p.hashes: the bridge layout and exporters (bridgeFacts),
// the shapes once per template (or as the plan it follows had them), and the
// full fingerprints one binding at a time — a
// carried binding's as the plan it follows had them, where nothing plan-wide
// they depend on moved; the others' from their slots' shapes plus one digest
// per shard group. The rendering is hand-rolled appends into one reused
// buffer, not fmt.
func (p *Plan) hashSwitches() {
	h := &p.hashes
	h.layout, h.exporters = p.bridgeFacts()
	var b []byte
	for _, bv := range h.layout {
		b = appendBridgeVar(b, bv)
		b = append(b, ',')
	}
	h.bridgeDigest = hexSum(b)
	from, keptAt := h.from, h.keptAt
	if !h.reusable() {
		from = nil
	}
	h.from, h.keptAt = nil, nil

	h.shapes = map[*Template][]string{}
	models := map[*asic.Model]string{}
	hosting := 0
	for _, bd := range p.bound {
		t := bd.Template
		if h.shapes[t] == nil && from != nil {
			h.shapes[t] = from.shapes[t]
		}
		if h.shapes[t] == nil {
			h.shapes[t] = bd.shapes(p.Input.Net, h, models, &b)
		}
		for i := range t.slots {
			if len(t.slots[i].instrs) > 0 {
				hosting++
			}
		}
	}
	h.full = make(map[string]string, hosting)
	groupDigests := map[string]string{} // extern -> digest of the current binding's shard group
	for k, bd := range p.bound {
		if from != nil && keptAt[k] {
			// Same component, same surroundings: same hashes, not rehashed.
			for _, sw := range bd.Switches {
				if full, hosts := from.full[sw]; hosts {
					h.full[sw] = full
				}
			}
			continue
		}
		clear(groupDigests)
		shapes := h.shapes[bd.Template]
		for i, sw := range bd.Switches {
			shape := shapes[i]
			if shape == "" {
				continue
			}
			// The full fingerprint: the shape plus the shard groups the
			// control-plane stub lists.
			b = append(b[:0], shape...)
			for _, pt := range bd.Template.slots[i].tables {
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
	for _, s := range bd.Template.shards[extern] {
		b = append(b, bd.Switches[s.index]...)
		b = append(b, '=')
		b = strconv.AppendInt(b, s.entries, 10)
		b = append(b, ',')
	}
	return hexSum(b)
}

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
// computed together in one O(plan) pass on first use.
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
	shapes       map[string]string
	full         map[string]string
	exporters    map[*ir.Var]exporter
	bridgeDigest string
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

// reusable reports whether a switch of a component carried over from the plan
// h.from belongs to hashes exactly as it did there. Within the component
// nothing changed; of the rest of the plan its hash sees the bridge layout
// and, per variable it reads, whether another switch exports it.
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
		for _, v := range in.Reads() {
			if e := p.hashes.exporters[v]; !seen[v] && e.importedBy(sw) {
				seen[v] = true
				out = append(out, e.bv)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var.String() < out[j].Var.String() })
	return out
}

// Shapes returns the name-free shape hash of every switch hosting anything
// in the plan. The map is memoised on the plan and shared: do not modify it.
func (p *Plan) Shapes() map[string]string {
	p.hashes.once.Do(p.hashSwitches)
	return p.hashes.shapes
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
// hashes digest it, so the two cannot disagree about what the layout is.
func (p *Plan) BridgeLayout() []BridgeVar {
	type field struct {
		alg, name string
		ver       int
	}
	seen := map[field]bool{}
	var layout []BridgeVar
	for _, sw := range sortedKeys(p.Bridges) {
		for _, bv := range p.Bridges[sw] {
			if f := (field{bv.Alg, bv.Var.Name, bv.Var.Ver}); !seen[f] {
				seen[f] = true
				layout = append(layout, bv)
			}
		}
	}
	return layout
}

// ShardGroup returns the shards of the placement component hosting sw's shard
// of a split extern, sorted by switch: exactly the ShardCount switches the
// extern's table on sw is split across. Every member of a group gets the same
// slice, which is shared: do not modify it.
func (p *Plan) ShardGroup(extern, sw string) []Shard { return p.shardGroups[extern][sw] }

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	var text [2 * sha256.Size]byte
	hex.Encode(text[:], sum[:])
	return string(text[:])
}

// slotShape is the part of a switch's hash input that its template slot
// determines, whichever switch is bound to it: the name-free local input
// (chip model, placed instruction IDs, table geometry, exports; nil for a slot
// hosting nothing) and the variables the placed instructions read, sorted by
// rendered name — a switch imports those some other switch exports.
type slotShape struct {
	local []byte
	reads []readVar
}

type readVar struct {
	v    *ir.Var
	name string // "alg.var"
}

// slotShapes renders every slot of the template as bound by bd — any binding
// of the template gives the same bytes, since the class fingerprint proves the
// chip model behind every index renders equally. models memoises the model
// rendering across templates.
func (bd Binding) slotShapes(net *topo.Network, models map[*asic.Model]string) []slotShape {
	out := make([]slotShape, len(bd.Template.slots))
	for i := range bd.Template.slots {
		s := &bd.Template.slots[i]
		if len(s.instrs) == 0 {
			continue
		}
		model := net.Switch(bd.Switches[i]).ASIC
		m, ok := models[model]
		if !ok {
			// %+v covers every capacity fact admission consults, so a
			// degraded chip that kept its name still changes the hash.
			h := sha256.New()
			fmt.Fprintf(h, "%+v", *model)
			m = "model=" + hex.EncodeToString(h.Sum(nil)) + "\n"
			models[model] = m
		}
		out[i].local = s.appendLocal([]byte(m))
		seen := map[*ir.Var]bool{}
		for _, in := range s.instrs {
			for _, v := range in.Reads() {
				if !seen[v] {
					seen[v] = true
					out[i].reads = append(out[i].reads, readVar{v, in.Alg + "." + v.String()})
				}
			}
		}
		reads := out[i].reads
		sort.Slice(reads, func(a, b int) bool { return reads[a].name < reads[b].name })
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

// hashSwitches fills p.hashes, one binding at a time. What a switch hosts is
// its template slot, so the name-free local part of the hash input is rendered
// once per template and copied per switch; what depends on the rest of the
// plan is added per switch: the imports (see Imports), the network-wide bridge
// layout digest, and one digest per shard group. The rendering is hand-rolled
// appends into one reused buffer, not fmt: it runs once per programmed switch
// per compile.
func (p *Plan) hashSwitches() {
	var b []byte
	for _, bv := range p.BridgeLayout() {
		b = appendBridgeVar(b, bv)
		b = append(b, ',')
	}
	bridgeDigest := hexSum(b)
	p.hashes.bridgeDigest = bridgeDigest

	exporters := map[*ir.Var]exporter{}
	for sw, bvs := range p.Bridges {
		for _, bv := range bvs {
			e := exporters[bv.Var]
			exporters[bv.Var] = exporter{bv, e.count + 1, sw}
		}
	}
	p.hashes.exporters = exporters
	from, keptAt := p.hashes.from, p.hashes.keptAt
	if !p.hashes.reusable() {
		from = nil
	}
	p.hashes.from, p.hashes.keptAt = nil, nil

	p.hashes.shapes = make(map[string]string, len(p.Allocations)) // every hosting switch has one
	p.hashes.full = make(map[string]string, len(p.Allocations))
	groupDigests := map[string]string{} // extern -> digest of the current binding's shard group
	slotShapes := map[*Template][]slotShape{}
	models := map[*asic.Model]string{}
	for k, bd := range p.bound {
		if from != nil && keptAt[k] {
			// Same component, same surroundings: same hashes, not rehashed.
			for _, sw := range bd.Switches {
				if shape, hosts := from.shapes[sw]; hosts {
					p.hashes.shapes[sw], p.hashes.full[sw] = shape, from.full[sw]
				}
			}
			continue
		}
		clear(groupDigests)
		shapes, ok := slotShapes[bd.Template]
		if !ok {
			shapes = bd.slotShapes(p.Input.Net, models)
			slotShapes[bd.Template] = shapes
		}
		for i, sw := range bd.Switches {
			s := &bd.Template.slots[i]
			if shapes[i].local == nil {
				continue
			}
			b = append(b[:0], shapes[i].local...)
			imports, last := false, ""
			for _, r := range shapes[i].reads {
				if exporters[r.v].importedBy(sw) && r.name != last {
					b = append(b, "import="...)
					b = append(b, r.name...)
					b = append(b, '\n')
					imports, last = true, r.name
				}
			}
			// A switch that imports or exports anything declares and parses the
			// whole lyra_bridge header; the others are not invalidated by layout
			// changes.
			if len(s.bridges) > 0 || imports {
				b = append(b, "bridge="...)
				b = append(b, bridgeDigest...)
				b = append(b, '\n')
			}
			shape := hexSum(b)
			p.hashes.shapes[sw] = shape

			// The full fingerprint: the shape plus the shard groups the
			// control-plane stub lists.
			b = append(b[:0], shape...)
			for _, pt := range s.tables {
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
				p.hashes.full[sw] = hexSum(b)
			} else {
				p.hashes.full[sw] = shape
			}
		}
	}
}

// digestShardGroup hashes the hosts and entries of the binding's shard group
// of one extern, in switch order.
func (bd Binding) digestShardGroup(extern string) string {
	var b []byte
	for _, s := range bd.Template.shards[extern] {
		b = append(b, bd.Switches[s.index]...)
		b = append(b, '=')
		b = strconv.AppendInt(b, s.entries, 10)
		b = append(b, ',')
	}
	return hexSum(b)
}

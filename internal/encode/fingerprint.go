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
	once   sync.Once
	shapes map[string]string
	full   map[string]string
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

// ShardGroup returns the shard map (switch -> entries) of the placement
// component hosting sw's shard of the extern: exactly the ShardCount switches
// the extern's table on sw is split across. The map is shared: do not modify
// it.
func (p *Plan) ShardGroup(extern, sw string) map[string]int64 {
	if g := p.shardGroups[extern][sw]; g != nil {
		return g
	}
	return p.Shards[extern]
}

// shardHost names one switch's shard of one extern.
type shardHost struct{ extern, sw string }

func hexSum(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// hashSwitches fills p.hashes. The rendering is hand-rolled appends into one
// reused buffer, not fmt: it runs once per programmed switch per compile, and
// fmt's reflection overhead was a measurable slice of a datacenter-scale
// compile. Everything plan-wide — the placement index inverted to per-switch
// form, the bridge layout digest, the importers of every exported variable,
// one digest per shard group, one rendering per chip model — is computed once
// up front, so the pass is O(plan) rather than O(switches x placements).
func (p *Plan) hashSwitches() {
	algs := sortedKeys(p.Placement)
	placedIDs := map[string]map[string][]int{} // switch -> alg -> sorted IDs
	for _, alg := range algs {
		for id, hosts := range p.Placement[alg] {
			for _, h := range hosts {
				m := placedIDs[h]
				if m == nil {
					m = map[string][]int{}
					placedIDs[h] = m
				}
				m[alg] = append(m[alg], id)
			}
		}
	}
	for _, m := range placedIDs {
		for _, ids := range m {
			sort.Ints(ids)
		}
	}

	// Var.String goes through fmt; render each bridged variable once.
	varNames := map[*ir.Var]string{}
	nameOf := func(alg string, v *ir.Var) string {
		n, ok := varNames[v]
		if !ok {
			n = alg + "." + v.String()
			varNames[v] = n
		}
		return n
	}
	appendBridgeVar := func(b []byte, bv BridgeVar) []byte {
		b = append(b, nameOf(bv.Alg, bv.Var)...)
		b = append(b, " bits="...)
		b = strconv.AppendInt(b, int64(bv.Bits), 10)
		if bv.Hit {
			b = append(b, " hit"...)
		}
		return b
	}

	var b []byte
	for _, bv := range p.BridgeLayout() {
		b = appendBridgeVar(b, bv)
		b = append(b, ',')
	}
	bridgeDigest := hexSum(b)

	// exporters[v] records how many switches export v and (when unique)
	// which one, so "some other switch exports v" resolves in O(1) per read —
	// the same rule backend.Build imports by.
	type exp struct {
		count int
		only  string
	}
	exporters := map[*ir.Var]exp{}
	for sw, bvs := range p.Bridges {
		for _, bv := range bvs {
			e := exporters[bv.Var]
			e.count++
			e.only = sw
			exporters[bv.Var] = e
		}
	}
	imports := map[string][]string{} // switch -> sorted "alg.var" it imports
	if len(exporters) > 0 {
		for _, a := range p.Input.IR.Algorithms {
			placed := p.Placement[a.Name]
			for _, in := range a.Instrs {
				hosts := placed[in.ID]
				if len(hosts) == 0 {
					continue
				}
				for _, v := range in.Reads() {
					e, ok := exporters[v]
					if !ok {
						continue
					}
					name := nameOf(a.Name, v)
					for _, h := range hosts {
						if e.count > 1 || e.only != h {
							imports[h] = append(imports[h], name)
						}
					}
				}
			}
		}
		for _, vs := range imports {
			sort.Strings(vs)
		}
	}

	models := map[*asic.Model]string{}
	groupDigests := map[shardHost]string{} // digest of the shard group each shard belongs to

	p.hashes.shapes = make(map[string]string, len(placedIDs))
	p.hashes.full = make(map[string]string, len(placedIDs))
	for sw, placed := range placedIDs {
		b = b[:0]
		if s := p.Input.Net.Switch(sw); s != nil {
			m, ok := models[s.ASIC]
			if !ok {
				// %+v covers every capacity fact admission consults, so a
				// degraded chip that kept its name still changes the hash.
				m = "model=" + hexSum([]byte(fmt.Sprintf("%+v", *s.ASIC))) + "\n"
				models[s.ASIC] = m
			}
			b = append(b, m...)
		}
		for _, alg := range algs {
			ids := placed[alg]
			if len(ids) == 0 {
				continue
			}
			b = append(b, "alg="...)
			b = append(b, alg...)
			b = append(b, " ids="...)
			for _, id := range ids {
				b = strconv.AppendInt(b, int64(id), 10)
				b = append(b, ',')
			}
			b = append(b, '\n')
		}
		for _, pt := range p.Tables[sw] {
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
		for _, bv := range p.Bridges[sw] {
			b = append(b, "export="...)
			b = appendBridgeVar(b, bv)
			b = append(b, '\n')
		}
		last := ""
		for _, v := range imports[sw] {
			if v != last {
				b = append(b, "import="...)
				b = append(b, v...)
				b = append(b, '\n')
				last = v
			}
		}
		// A switch that imports or exports anything declares and parses the
		// whole lyra_bridge header; the others are not invalidated by layout
		// changes.
		if len(p.Bridges[sw]) > 0 || len(imports[sw]) > 0 {
			b = append(b, "bridge="...)
			b = append(b, bridgeDigest...)
			b = append(b, '\n')
		}
		shape := hexSum(b)
		p.hashes.shapes[sw] = shape

		// The full fingerprint: the shape plus the shard groups the
		// control-plane stub lists.
		b = append(b[:0], shape...)
		for _, pt := range p.Tables[sw] {
			if pt.Kind != synth.MatchExtern || pt.ShardCount <= 1 {
				continue
			}
			name := pt.Extern.Name
			d, ok := groupDigests[shardHost{name, sw}]
			if !ok {
				d = p.digestShardGroup(name, sw, groupDigests)
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

// digestShardGroup hashes the hosts and entries of sw's shard group of one
// extern and records the digest under every member of the group, so each
// group is rendered once however many switches it spans.
func (p *Plan) digestShardGroup(extern, sw string, digests map[shardHost]string) string {
	group := p.ShardGroup(extern, sw)
	var b []byte
	for _, h := range sortedKeys(group) {
		b = append(b, h...)
		b = append(b, '=')
		b = strconv.AppendInt(b, group[h], 10)
		b = append(b, ',')
	}
	d := hexSum(b)
	for h := range group {
		digests[shardHost{extern, h}] = d
	}
	return d
}

package rewrite

import (
	"fmt"
	"sort"
	"strings"

	"lyra/internal/dataplane"
	"lyra/internal/encode"
	"lyra/internal/ir"
)

// Certification: before a candidate may win the search it must be proven
// behaviorally equivalent to the base program on seeded traces, the
// difftest-oracle discipline applied inside the compiler. Three checks run,
// cheapest and strongest first:
//
//  1. whole-pipeline reference equivalence — base and candidate execute
//     under the one-big-pipeline semantics on every trace packet and must
//     agree on every observable dimension (this is what catches a broken
//     rewrite rule);
//  2. cross-tier agreement — the candidate's deployed plan runs each
//     algorithm's flow paths through the compiled backend, then the
//     tree-walking interpreter replays the same packet; the two must agree
//     exactly;
//  3. deployment-vs-reference — the deployed execution must match the base
//     program's reference output on the fields each algorithm owns (other
//     algorithms' instructions are not fully present along its paths).
//
// Everything is derived deterministically from Options.Seed, so a
// certification failure replays exactly.

// splitmix is the deterministic trace RNG (splitmix64): tiny, seedable, and
// stable across platforms.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// fieldConsts harvests, per "hdr.field", the constants the program compares
// that field against (plus each constant's successor, to land on both sides
// of >=/<= boundaries). Trace packets drive fields through these values so
// every guard combination in a program of this size actually fires.
func fieldConsts(p *ir.Program) map[string][]uint64 {
	sets := map[string]map[uint64]bool{}
	for _, a := range p.Algorithms {
		for _, in := range a.Instrs {
			if in.Op != ir.IBin || !in.BinOp.IsComparison() || len(in.Args) != 2 {
				continue
			}
			var f, c *ir.Operand
			for k := range in.Args {
				switch in.Args[k].Kind {
				case ir.OpdField:
					f = &in.Args[k]
				case ir.OpdConst:
					c = &in.Args[k]
				}
			}
			if f == nil || c == nil {
				continue
			}
			key := f.Hdr + "." + f.Field
			if sets[key] == nil {
				sets[key] = map[uint64]bool{}
			}
			sets[key][c.Const] = true
			sets[key][c.Const+1] = true
		}
	}
	out := map[string][]uint64{}
	for f, set := range sets {
		vals := make([]uint64, 0, len(set))
		for v := range set {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		out[f] = vals
	}
	return out
}

// certPackets generates n trace packets over the program's declared fields:
// every header valid, field values drawn mostly from the constants the
// program itself compares against (so guards hit and miss), mixed with
// small integers and full-width randoms.
func certPackets(p *ir.Program, seed int64, n int) []*dataplane.Packet {
	r := &splitmix{s: uint64(seed)}
	fields := make([]string, 0, len(p.FieldBits))
	for f := range p.FieldBits {
		fields = append(fields, f)
	}
	sort.Strings(fields)
	headers := make([]string, 0, len(p.HeaderBits))
	for h := range p.HeaderBits {
		headers = append(headers, h)
	}
	sort.Strings(headers)
	consts := fieldConsts(p)

	pkts := make([]*dataplane.Packet, 0, n)
	for i := 0; i < n; i++ {
		pkt := dataplane.NewPacket()
		for _, h := range headers {
			pkt.Valid[h] = true
		}
		for _, f := range fields {
			bits := p.FieldBits[f]
			v := r.next()
			cands := consts[f]
			switch {
			case len(cands) > 0 && i%3 != 2:
				// Two thirds of the trace walks the program's own
				// comparison constants.
				v = cands[v%uint64(len(cands))]
			case v%2 == 0:
				v = (v >> 1) % 8 // small values collide with extern keys
			default:
				if bits > 0 && bits < 64 {
					v &= 1<<uint(bits) - 1
				}
			}
			pkt.Fields[f] = v
		}
		pkts = append(pkts, pkt)
	}
	return pkts
}

// certTables populates control-plane state for every extern the program
// declares: dense small keys (0..7) that trace packets can hit, plus a few
// random keys, values random. Entry counts respect each extern's declared
// size so sharded placements hold the full content.
func certTables(p *ir.Program, seed int64) *dataplane.Tables {
	r := &splitmix{s: uint64(seed) ^ 0xa5a5a5a5a5a5a5a5}
	tables := dataplane.NewTables()
	for _, a := range p.Algorithms {
		for _, e := range a.Externs {
			n := 12
			if e.Size > 0 && e.Size < n {
				n = e.Size
			}
			for k := 0; k < n && k < 8; k++ {
				tables.Set(e.Name, uint64(k), r.next()%65536)
			}
			for k := 8; k < n; k++ {
				tables.Set(e.Name, r.next()%4096, r.next()%65536)
			}
		}
	}
	return tables
}

// certContext is the fixed switch environment shared by reference and
// deployed runs, so library calls resolve identically everywhere.
func certContext() *dataplane.Context {
	return &dataplane.Context{SwitchID: 1, IngressTS: 1000, EgressTS: 2000,
		QueueLen: 3, QueueTime: 40, IngressPort: 2}
}

// ownedFields lists the "hdr.field" outputs an algorithm's instructions
// write — the ownership set checks 3 compares (sorted).
func ownedFields(a *ir.Algorithm) []string {
	set := map[string]bool{}
	for _, in := range a.Instrs {
		if in.Dest.Kind == ir.DestField {
			set[in.Dest.Hdr+"."+in.Dest.Field] = true
		}
	}
	out := make([]string, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// ownsPacketOps reports whether the algorithm issues packet-level
// operations (drop/forward/mirror/copy_to_cpu), and therefore owns the
// packet disposition flags during comparison.
func ownsPacketOps(a *ir.Algorithm) bool {
	for _, in := range a.Instrs {
		if in.Op == ir.IPacketOp {
			return true
		}
	}
	return false
}

// pathsFor selects the flow paths certification exercises for one
// algorithm: the scope's flow paths when it has any (MULTI-SW deployments),
// else one single-hop path per switch actually hosting the algorithm.
// limit > 0 caps the count; limit < 0 means all.
func pathsFor(plan *encode.Plan, alg string, limit int) [][]string {
	var paths [][]string
	if sc := plan.Input.Scopes[alg]; sc != nil {
		paths, _ = sc.PathList() // within budget: the solve walked them under the same one
	}
	if len(paths) == 0 {
		for _, sw := range plan.Hosts(alg) {
			paths = append(paths, []string{sw})
		}
	}
	if limit > 0 && len(paths) > limit {
		paths = paths[:limit]
	}
	return paths
}

// certify proves cand equivalent to base, or explains why not. plan is
// cand's feasible placement. A non-nil error rejects the candidate.
func certify(base, cand *ir.Program, plan *encode.Plan, o Options) error {
	pkts := certPackets(base, o.Seed, o.TracePackets)
	ctx := certContext()

	// Check 1: one-big-pipeline reference equivalence, all fields. A run's
	// data-plane inserts land in the table state it is given, so each side
	// keeps its own across the trace: what the base inserted, the candidate
	// must insert itself to see.
	baseTables, candTables := certTables(base, o.Seed), certTables(base, o.Seed)
	for ti, pkt := range pkts {
		rb, err := dataplane.RunReference(base, baseTables, ctx, pkt)
		if err != nil {
			return fmt.Errorf("packet#%d: base reference: %v", ti, err)
		}
		rc, err := dataplane.RunReference(cand, candTables, ctx, pkt)
		if err != nil {
			return fmt.Errorf("packet#%d: candidate reference: %v", ti, err)
		}
		if diffs := dataplane.DiffPackets(rb, rc, nil); len(diffs) > 0 {
			return fmt.Errorf("packet#%d: candidate diverges from base under reference semantics: %s",
				ti, strings.Join(diffs, "; "))
		}
	}

	// Checks 2+3: deployed execution, per algorithm, per flow path. A fresh
	// deployment and fresh tables per comparison isolate register and table
	// state — deployed globals persist across runs while the reference
	// starts clean.
	for _, a := range cand.Algorithms {
		paths := pathsFor(plan, a.Name, o.CertifyPaths)
		if len(paths) == 0 {
			return fmt.Errorf("%s: plan places the algorithm on no switch", a.Name)
		}
		owned := ownedFields(a)
		ownsOps := ownsPacketOps(a)
		for pi, path := range paths {
			for ti, pkt := range pkts {
				dep, err := dataplane.NewDeployment(plan, certTables(base, o.Seed))
				if err != nil {
					return fmt.Errorf("%s path#%d: deploy: %v", a.Name, pi, err)
				}
				ref, err := dataplane.RunReference(base, certTables(base, o.Seed), ctx, pkt)
				if err != nil {
					return fmt.Errorf("%s path#%d packet#%d: base reference: %v", a.Name, pi, ti, err)
				}
				// Compiled tier first: its copy-on-write table views keep
				// data-plane inserts lane-local, while the interpreter writes
				// into the shared shard tables.
				comp, err := dep.RunPathCompiled(path, ctx, pkt.Clone())
				if err != nil {
					return fmt.Errorf("%s path#%d %v: compiled: %v", a.Name, pi, path, err)
				}
				interp, err := dep.RunPath(path, ctx, pkt.Clone())
				if err != nil {
					return fmt.Errorf("%s path#%d %v: interpreter: %v", a.Name, pi, path, err)
				}
				if diffs := dataplane.DiffPackets(interp, comp, nil); len(diffs) > 0 {
					return fmt.Errorf("%s path#%d %v packet#%d: compiled backend diverges from interpreter: %s",
						a.Name, pi, path, ti, strings.Join(diffs, "; "))
				}
				got := comp.Clone()
				if !ownsOps {
					// Packet flags belong to the algorithm issuing packet
					// operations; on other algorithms' paths they are out of
					// scope.
					got.Dropped = ref.Dropped
					got.EgressPort = ref.EgressPort
					got.Mirrored = ref.Mirrored
					got.ToCPU = ref.ToCPU
				}
				if diffs := dataplane.DiffPackets(ref, got, owned); len(diffs) > 0 {
					return fmt.Errorf("%s path#%d %v packet#%d: deployed candidate diverges from base reference: %s",
						a.Name, pi, path, ti, strings.Join(diffs, "; "))
				}
			}
		}
	}
	return nil
}

package eval

// The stateful scenario library: the three streaming workloads of the
// evaluation — stateful firewall/NAT, heavy-hitter count-min sketch, and
// flowlet load balancing — packaged with their control-plane contents,
// flow-ordered trace synthesizers, and lane-affinity keys, so the same
// scenario drives golden tests, tier-equivalence certification and the
// wire-stream benchmark.

import (
	"fmt"
	"math/rand"

	"lyra/internal/dataplane"
	"lyra/internal/topo"
)

// Scenario is one stateful streaming workload.
type Scenario struct {
	// Name is the short scenario id ("nat", "sketch", "flowlet").
	Name string
	// Program names the testdata/programs source file and Algorithm the
	// algorithm whose scope paths packets replay along.
	Program   string
	Algorithm string
	// TSField, when non-empty, receives each trace record's capture
	// timestamp on replay (the flowlet workload reads time from the
	// packet, like a replayed pcap).
	TSField string
	// LaneSafe reports whether the workload obeys the lane-affinity
	// contract: all cross-packet state interactions confined to packets
	// with equal flow key. The sketch is not lane-safe (rows are
	// cross-flow); it streams at one lane or merges rows afterwards.
	LaneSafe bool
	// StateExterns and StateGlobals name the per-flow state to compare in
	// determinism checks, with KeySpace enumerating the flow-key values a
	// trace can produce.
	StateExterns []string
	StateGlobals []string
	// FlowKey builds the lane-affinity key extractor for a deployment.
	FlowKey func(*dataplane.Engine) (func(*dataplane.FlatPacket) uint64, error)
	// Populate fills the control-plane tables the workload expects.
	Populate func(*dataplane.Tables)
	// Trace synthesizes an n-packet flow-ordered capture.
	Trace func(n int, seed int64) []dataplane.TraceRecord
}

// ScopeText renders the scenario's MULTI-SW scope for a ToR/Agg network
// (the Testbed or a fat-tree pod).
func (sc Scenario) ScopeText() string {
	return fmt.Sprintf("%s: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]", sc.Algorithm)
}

// Deploy compiles the scenario onto net, populates its tables, and
// returns the deployment plus the longest flow path.
func (sc Scenario) Deploy(net *topo.Network) (*dataplane.Deployment, []string, error) {
	src, err := LoadProgram(sc.Program)
	if err != nil {
		return nil, nil, err
	}
	_, plan, err := compileScoped(src, sc.ScopeText(), net)
	if err != nil {
		return nil, nil, err
	}
	tables := dataplane.NewTables()
	if sc.Populate != nil {
		sc.Populate(tables)
	}
	dep, err := dataplane.NewDeployment(plan, tables)
	if err != nil {
		return nil, nil, err
	}
	paths, err := plan.Input.Scopes[sc.Algorithm].PathList()
	if err != nil {
		return nil, nil, err
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no flow paths for %s", sc.Algorithm)
	}
	best := paths[0]
	for _, p := range paths {
		if len(p) > len(best) {
			best = p
		}
	}
	return dep, best, nil
}

// natTuple is the canonical 5-tuple of one NAT flow; ids stay in a small
// space so traces revisit flows.
func natTuple(id int) (src, dst, sport, dport uint64) {
	return 0x0A000000 + uint64(id%32), 0x0B000000 + uint64(id%7),
		uint64(1024 + id), 443
}

// Scenarios returns the library.
func Scenarios() []Scenario {
	return []Scenario{
		{
			Name:         "nat",
			Program:      "stateful_nat",
			Algorithm:    "stateful_nat",
			LaneSafe:     true,
			StateExterns: []string{"conn_table"},
			FlowKey: func(eng *dataplane.Engine) (func(*dataplane.FlatPacket) uint64, error) {
				return eng.FlowKeyHash("crc32_hash", 32, 0,
					"ipv4.src_ip", "ipv4.dst_ip", "ipv4.protocol", "tcp.src_port", "tcp.dst_port")
			},
			Populate: func(t *dataplane.Tables) {
				for i := uint64(0); i < 32; i++ {
					t.Set("nat_pool", 0x0A000000+i, 0xC0A80000+i)
				}
			},
			Trace: func(n int, seed int64) []dataplane.TraceRecord {
				rng := rand.New(rand.NewSource(seed))
				recs := make([]dataplane.TraceRecord, n)
				for i := range recs {
					id := rng.Intn(24)
					src, dst, sport, dport := natTuple(id)
					// Mostly outbound; inbound packets probe the connection
					// table, including some flows never established (dropped).
					dir := uint64(0)
					if rng.Intn(3) == 0 {
						dir = 1
					}
					recs[i] = dataplane.TraceRecord{
						TS:    uint64(1000 + i*13),
						Valid: []string{"ethernet", "ipv4", "tcp", "nat_meta"},
						Fields: map[string]uint64{
							"ipv4.src_ip":   src,
							"ipv4.dst_ip":   dst,
							"ipv4.protocol": 6,
							"tcp.src_port":  sport,
							"tcp.dst_port":  dport,
							"nat_meta.dir":  dir,
							"ipv4.ttl":      64,
						},
					}
				}
				return recs
			},
		},
		{
			Name:         "sketch",
			Program:      "heavy_hitter",
			Algorithm:    "heavy_hitter",
			LaneSafe:     false,
			StateGlobals: []string{"cms_row0", "cms_row1", "cms_row2"},
			FlowKey: func(eng *dataplane.Engine) (func(*dataplane.FlatPacket) uint64, error) {
				return eng.FlowKeyHash("crc32_hash", 32, 0, "ipv4.src_ip", "ipv4.dst_ip")
			},
			Trace: func(n int, seed int64) []dataplane.TraceRecord {
				rng := rand.New(rand.NewSource(seed))
				recs := make([]dataplane.TraceRecord, n)
				for i := range recs {
					// Skewed mix: 4 elephants carry ~40% of packets over a
					// 64-flow tail, so threshold export actually fires.
					var id int
					if rng.Intn(5) < 2 {
						id = rng.Intn(4)
					} else {
						id = 4 + rng.Intn(64)
					}
					recs[i] = dataplane.TraceRecord{
						TS:    uint64(500 + i*7),
						Valid: []string{"ethernet", "ipv4", "hh_meta"},
						Fields: map[string]uint64{
							"ipv4.src_ip":   0x0A000000 + uint64(id),
							"ipv4.dst_ip":   0x0B000000 + uint64(id%9),
							"ipv4.protocol": 17,
							"ipv4.ttl":      64,
						},
					}
				}
				return recs
			},
		},
		{
			Name:         "flowlet",
			Program:      "flowlet_lb",
			Algorithm:    "flowlet_lb",
			TSField:      "lb_meta.ts",
			LaneSafe:     true,
			StateGlobals: []string{"flowlet_last", "flowlet_bucket", "flowlet_count"},
			FlowKey: func(eng *dataplane.Engine) (func(*dataplane.FlatPacket) uint64, error) {
				// State is indexed by fid = crc32(5-tuple) & 255; keying
				// lanes on fid makes index collisions lane collisions.
				return eng.FlowKeyHash("crc32_hash", 32, 255,
					"ipv4.src_ip", "ipv4.dst_ip", "ipv4.protocol", "tcp.src_port", "tcp.dst_port")
			},
			Populate: func(t *dataplane.Tables) {
				for b := uint64(0); b < 64; b++ {
					t.Set("path_table", b, 1+b%8)
				}
			},
			Trace: func(n int, seed int64) []dataplane.TraceRecord {
				rng := rand.New(rand.NewSource(seed))
				recs := make([]dataplane.TraceRecord, n)
				ts := uint64(10000)
				for i := range recs {
					// Bursty arrivals: occasional long gaps split flowlets and
					// force timeout-driven rebinding mid-trace.
					ts += uint64(1 + rng.Intn(40))
					if rng.Intn(50) == 0 {
						ts += 6000
					}
					id := rng.Intn(20)
					src, dst, sport, dport := natTuple(id)
					recs[i] = dataplane.TraceRecord{
						TS:    ts,
						Valid: []string{"ethernet", "ipv4", "tcp", "lb_meta"},
						Fields: map[string]uint64{
							"ipv4.src_ip":   src,
							"ipv4.dst_ip":   dst,
							"ipv4.protocol": 6,
							"tcp.src_port":  sport,
							"tcp.dst_port":  dport,
							"ipv4.ttl":      64,
						},
					}
				}
				return recs
			},
		},
	}
}

// ScenarioByName finds one scenario.
func ScenarioByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}

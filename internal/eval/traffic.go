package eval

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"lyra/internal/asic"
	"lyra/internal/dataplane"
	"lyra/internal/topo"
)

// TrafficPoint is one traffic-replay throughput measurement: the stateful
// L4 load balancer deployed on a fat-tree pod, with a synthetic flow
// replayed along one ToR->Agg->ToR path through one of the two
// execution tiers (interpreter, compiled backend).
type TrafficPoint struct {
	Workload string `json:"workload"`
	K        int    `json:"k"`
	// Engine is the execution tier: "interpreter" or "compiled".
	Engine string `json:"engine"`
	// Batch is the packets submitted per replay call (the interpreter has
	// no batch API; it always runs packet-at-a-time with Batch recorded as
	// the chunk the wall clock was amortized over).
	Batch   int `json:"batch"`
	Workers int `json:"workers"`
	Packets int `json:"packets"`
	// PktsPerSec is the replay throughput; AllocsPerPkt the steady-state
	// heap allocations per packet (0 for the compiled tier by construction).
	PktsPerSec   float64 `json:"pkts_per_sec"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	// Speedup is PktsPerSec over the interpreter baseline at the same k
	// (1.0 for the baseline row itself).
	Speedup float64 `json:"speedup"`
}

// trafficDeployment compiles the LB workload onto a fat-tree pod and
// deploys it with populated VIP and connection tables, returning the
// deployment and one multi-hop flow path.
func trafficDeployment(k int) (*dataplane.Deployment, []string, error) {
	net := topo.FatTreePod(k, asic.Tofino32Q)
	_, plan, err := compileScoped(lbSource(4096, 1024), "loadbalancer: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]", net)
	if err != nil {
		return nil, nil, err
	}
	tables := dataplane.NewTables()
	rng := rand.New(rand.NewSource(1))
	for vip := uint64(0); vip < 64; vip++ {
		tables.Set("vip_table", vip, 0xC0A80000+vip)
	}
	for i := 0; i < 512; i++ {
		tables.Set("conn_table", uint64(rng.Uint32()), 0x0A000000+uint64(i))
	}
	dep, err := dataplane.NewDeployment(plan, tables)
	if err != nil {
		return nil, nil, err
	}
	paths := plan.Input.Scopes["loadbalancer"].Paths
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("no flow paths for loadbalancer on k=%d pod", k)
	}
	// Prefer the longest path (most hops per packet).
	best := paths[0]
	for _, p := range paths {
		if len(p) > len(best) {
			best = p
		}
	}
	return dep, best, nil
}

// trafficPackets synthesizes n random LB flows.
func trafficPackets(n int) []*dataplane.Packet {
	rng := rand.New(rand.NewSource(2))
	pkts := make([]*dataplane.Packet, n)
	for i := range pkts {
		p := dataplane.NewPacket()
		p.Valid["ipv4"] = true
		p.Valid["tcp"] = true
		p.Fields["ipv4.srcAddr"] = uint64(rng.Uint32())
		p.Fields["ipv4.dstAddr"] = uint64(rng.Intn(64))
		p.Fields["ipv4.protocol"] = 6
		p.Fields["tcp.srcPort"] = uint64(rng.Intn(1 << 16))
		p.Fields["tcp.dstPort"] = 80
		pkts[i] = p
	}
	return pkts
}

// allocsDuring reports total mallocs during fn.
func allocsDuring(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// scalingWorkers returns the worker counts for the scaling curve: powers
// of two up to max, with max itself always included.
func scalingWorkers(max int) []int {
	ws := []int{1}
	for w := 2; w < max; w *= 2 {
		ws = append(ws, w)
	}
	if max > 1 {
		ws = append(ws, max)
	}
	return ws
}

// TrafficReplay measures packet replay throughput across the execution
// tiers on a fat-tree pod of size k: the interpreter baseline, then the
// compiled backend at batch sizes 1, 64, and 1024. Small batches run at 1
// worker and full parallelism; the 1024 batch sweeps a power-of-two worker
// scaling curve up to maxWorkers.
// nPackets <= 0 defaults to 200k packets per measurement.
func TrafficReplay(k, nPackets, maxWorkers int) ([]TrafficPoint, error) {
	if k <= 0 {
		k = 8
	}
	if nPackets <= 0 {
		nPackets = 200_000
	}
	if maxWorkers <= 0 {
		maxWorkers = runtime.GOMAXPROCS(0)
	}
	dep, path, err := trafficDeployment(k)
	if err != nil {
		return nil, err
	}
	eng, err := dep.Engine()
	if err != nil {
		return nil, err
	}
	src := trafficPackets(4096)
	ctx := &dataplane.Context{SwitchID: 1, IngressTS: 100, EgressTS: 200, QueueLen: 2}

	var points []TrafficPoint

	// Interpreter baseline: packet-at-a-time RunPath.
	{
		warm := src[0]
		if _, err := dep.RunPath(path, ctx, warm); err != nil {
			return nil, err
		}
		var runErr error
		start := time.Now()
		allocs := allocsDuring(func() {
			for i := 0; i < nPackets; i++ {
				if _, err := dep.RunPath(path, ctx, src[i%len(src)]); err != nil {
					runErr = err
					return
				}
			}
		})
		if runErr != nil {
			return nil, runErr
		}
		wall := time.Since(start)
		points = append(points, TrafficPoint{
			Workload: "lb-multi", K: k, Engine: "interpreter", Batch: 1, Workers: 1,
			Packets: nPackets, PktsPerSec: float64(nPackets) / wall.Seconds(),
			AllocsPerPkt: float64(allocs) / float64(nPackets),
			NsPerPkt:     float64(wall.Nanoseconds()) / float64(nPackets),
			Speedup:      1,
		})
	}
	base := points[0].PktsPerSec

	// Compiled tier: replay the same stream at each (batch, workers) point.
	// Templates are flattened once; the replay loop refreshes each batch
	// from its template (CopyFrom is allocation-free) so every measurement
	// processes identical inputs, each as a best-of-five trial.
	smallSet := []int{1}
	if maxWorkers > 1 {
		smallSet = append(smallSet, maxWorkers)
	}
	curveSet := scalingWorkers(maxWorkers)
	x, err := dep.ExecutorFor(dataplane.TierCompiled)
	if err != nil {
		return nil, err
	}
	const trials = 5
	for _, batch := range []int{1, 64, 1024} {
		workerSet := smallSet
		if batch == 1024 {
			workerSet = curveSet // the scaling curve rides the big batch
		}
		for _, workers := range workerSet {
			if workers > 1 && batch < 64 {
				continue // sharding a 1-packet batch measures only overhead
			}
			tmpl := make([]*dataplane.FlatPacket, batch)
			work := make([]*dataplane.FlatPacket, batch)
			for i := range tmpl {
				tmpl[i] = eng.Flatten(src[i%len(src)])
				work[i] = eng.NewFlatPacket()
			}
			rounds := (nPackets + batch - 1) / batch
			// Only the RunBatch calls are on the clock: the template
			// refresh between rounds is harness work, not tier throughput.
			var busy time.Duration
			replay := func(n int, timed bool) error {
				for r := 0; r < n; r++ {
					for j := range work {
						work[j].CopyFrom(tmpl[j])
					}
					start := time.Now()
					err := x.RunBatch(path, ctx, work, workers)
					if timed {
						busy += time.Since(start)
					}
					if err != nil {
						return err
					}
				}
				return nil
			}
			if err := replay(2, false); err != nil { // warm lanes and worker pool
				return nil, err
			}
			best := time.Duration(0)
			var allocs uint64
			for trial := 0; trial < trials; trial++ {
				busy = 0
				var runErr error
				a := allocsDuring(func() { runErr = replay(rounds, true) })
				if runErr != nil {
					return nil, runErr
				}
				if trial == 0 || busy < best {
					best, allocs = busy, a
				}
			}
			total := rounds * batch
			pps := float64(total) / best.Seconds()
			points = append(points, TrafficPoint{
				Workload: "lb-multi", K: k, Engine: x.Tier().String(), Batch: batch, Workers: workers,
				Packets: total, PktsPerSec: pps,
				AllocsPerPkt: float64(allocs) / float64(total),
				NsPerPkt:     float64(best.Nanoseconds()) / float64(total),
				Speedup:      pps / base,
			})
		}
	}
	return points, nil
}

// CheckTrafficScaling validates the scaling expectation on a traffic
// result, returning human-readable violations (empty = clean): on the
// compiled tier, adding workers at the largest batch must not regress
// throughput below slack x the previous point on the curve. Slack < 1
// absorbs scheduler noise on shared CI runners; the headline numbers come
// from quiet machines.
func CheckTrafficScaling(points []TrafficPoint, slack float64) []string {
	var violations []string
	maxBatch := 0
	for _, p := range points {
		if p.Batch > maxBatch {
			maxBatch = p.Batch
		}
	}
	prev := map[string]TrafficPoint{}
	for _, p := range points {
		if p.Engine == "interpreter" || p.Batch != maxBatch {
			continue
		}
		if q, ok := prev[p.Engine]; ok && p.PktsPerSec < slack*q.PktsPerSec {
			violations = append(violations, fmt.Sprintf(
				"%s batch=%d: %d workers ran at %.0f pkts/s, below %.2fx the %.0f pkts/s of %d workers",
				p.Engine, p.Batch, p.Workers, p.PktsPerSec, slack, q.PktsPerSec, q.Workers))
		}
		prev[p.Engine] = p
	}
	return violations
}

// FormatTraffic renders the replay comparison.
func FormatTraffic(points []TrafficPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s %-12s %6s %8s %12s %10s %11s %8s\n",
		"Workload", "k", "engine", "batch", "workers", "pkts/s", "ns/pkt", "allocs/pkt", "speedup")
	fmt.Fprintln(&b, strings.Repeat("-", 90))
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %4d %-12s %6d %8d %12.0f %10.1f %11.2f %7.1fx\n",
			p.Workload, p.K, p.Engine, p.Batch, p.Workers,
			p.PktsPerSec, p.NsPerPkt, p.AllocsPerPkt, p.Speedup)
	}
	return b.String()
}

package eval

// The streaming replay experiment: the stateful scenario library driven
// through Deployment.OpenStream on a fat-tree pod, measuring sustained
// feed throughput and steady-state allocations per packet for every
// executor tier, at one lane and fanned out across lanes where the
// workload's lane-affinity contract allows it.

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"lyra/internal/asic"
	"lyra/internal/dataplane"
	"lyra/internal/topo"
)

// StreamPoint is one streaming-replay measurement.
type StreamPoint struct {
	Scenario string `json:"scenario"`
	K        int    `json:"k"`
	// Engine is the execution tier: "interpreter" or "compiled".
	Engine    string `json:"engine"`
	Lanes     int    `json:"lanes"`
	BatchSize int    `json:"batch_size"`
	Packets   int    `json:"packets"`
	// Drains counts coordinated drain rounds over the whole measurement;
	// LaneSafe records whether the workload may legally fan out.
	Drains   uint64 `json:"drains"`
	LaneSafe bool   `json:"lane_safe"`
	// PktsPerSec is the sustained Feed throughput; AllocsPerPkt the
	// steady-state heap allocations per packet (0 on the compiled tier by
	// construction).
	PktsPerSec   float64 `json:"pkts_per_sec"`
	NsPerPkt     float64 `json:"ns_per_pkt"`
	AllocsPerPkt float64 `json:"allocs_per_pkt"`
	// Speedup is PktsPerSec over the interpreter stream at one lane for
	// the same scenario (1.0 for that baseline row).
	Speedup float64 `json:"speedup"`
}

// streamLaneSet returns the lane counts a scenario is measured at: every
// workload at one lane; lane-safe workloads additionally fanned out.
func streamLaneSet(sc Scenario, maxLanes int) []int {
	lanes := []int{1}
	if sc.LaneSafe && maxLanes > 1 {
		lanes = append(lanes, maxLanes)
	}
	return lanes
}

// StreamReplay measures streaming replay throughput for every scenario in
// the library on a fat-tree pod of size k. Each point opens a long-lived
// stream, feeds nPackets in 256-packet calls (refreshing work packets
// from flattened templates between rounds, off the clock), and reports
// the best of three timed trials. nPackets <= 0 defaults to 100k;
// maxLanes <= 0 defaults to GOMAXPROCS capped at 4.
func StreamReplay(k, nPackets, maxLanes int) ([]StreamPoint, error) {
	if k <= 0 {
		k = 8
	}
	if nPackets <= 0 {
		nPackets = 100_000
	}
	if maxLanes <= 0 {
		maxLanes = runtime.GOMAXPROCS(0)
		if maxLanes > 4 {
			maxLanes = 4
		}
	}
	const (
		tmplSize  = 4096
		feedSize  = 256
		batchSize = 256
		trials    = 3
	)
	net := topo.FatTreePod(k, asic.Tofino32Q)
	var points []StreamPoint
	for _, sc := range Scenarios() {
		recs := sc.Trace(tmplSize, 42)
		base := 0.0
		for _, tier := range []dataplane.ExecutorTier{
			dataplane.TierInterpreter, dataplane.TierCompiled,
		} {
			laneSet := streamLaneSet(sc, maxLanes)
			if tier == dataplane.TierInterpreter {
				laneSet = []int{1} // sequential by contract; fan-out is a no-op
			}
			for _, lanes := range laneSet {
				// Fresh deployment per point: interpreter streams mutate
				// deployment state, and identical starting state keeps the
				// tier ratio honest.
				dep, path, err := sc.Deploy(net)
				if err != nil {
					return nil, err
				}
				eng, err := dep.Engine()
				if err != nil {
					return nil, err
				}
				key, err := sc.FlowKey(eng)
				if err != nil {
					return nil, err
				}
				s, err := dep.OpenStream(path, dataplane.StreamOptions{
					Tier: tier, Lanes: lanes, BatchSize: batchSize, FlowKey: key,
				})
				if err != nil {
					return nil, err
				}
				tmpl := eng.FlattenTrace(recs, sc.TSField)
				work := make([]*dataplane.FlatPacket, len(tmpl))
				for i := range work {
					work[i] = eng.NewFlatPacket()
				}
				rounds := (nPackets + tmplSize - 1) / tmplSize
				// Only the Feed/Flush calls are on the clock: the template
				// refresh is harness work, identical for every tier.
				var busy time.Duration
				replay := func(n int, timed bool) error {
					for r := 0; r < n; r++ {
						for j := range work {
							work[j].CopyFrom(tmpl[j])
						}
						for off := 0; off < len(work); off += feedSize {
							hi := off + feedSize
							if hi > len(work) {
								hi = len(work)
							}
							start := time.Now()
							err := s.Feed(work[off:hi]...)
							if timed {
								busy += time.Since(start)
							}
							if err != nil {
								return err
							}
						}
					}
					start := time.Now()
					s.Flush()
					if timed {
						busy += time.Since(start)
					}
					return nil
				}
				if err := replay(2, false); err != nil { // warm lanes, tables, pools
					return nil, err
				}
				// Best busy time and min allocation count are taken across
				// trials independently: one-off runtime bookkeeping (goroutine
				// stack growth, sudog caching) can land in any single trial,
				// and the steady-state figure is the trial without it.
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
						best = busy
					}
					if trial == 0 || a < allocs {
						allocs = a
					}
				}
				s.Close()
				total := rounds * tmplSize
				pps := float64(total) / best.Seconds()
				if tier == dataplane.TierInterpreter && lanes == 1 {
					base = pps
				}
				speedup := 1.0
				if base > 0 {
					speedup = pps / base
				}
				points = append(points, StreamPoint{
					Scenario: sc.Name, K: k, Engine: tier.String(),
					Lanes: lanes, BatchSize: batchSize, Packets: total,
					Drains: s.Stats().Drains, LaneSafe: sc.LaneSafe,
					PktsPerSec:   pps,
					NsPerPkt:     float64(best.Nanoseconds()) / float64(total),
					AllocsPerPkt: float64(allocs) / float64(total),
					Speedup:      speedup,
				})
			}
		}
	}
	return points, nil
}

// CheckStreamAllocs validates the steady-state allocation contract on a
// stream result: every compiled-tier point must stay at or below maxAllocs
// heap allocations per packet. Returns human-readable violations (empty =
// clean).
func CheckStreamAllocs(points []StreamPoint, maxAllocs float64) []string {
	var violations []string
	for _, p := range points {
		if p.Engine == "interpreter" {
			continue
		}
		if p.AllocsPerPkt > maxAllocs {
			violations = append(violations, fmt.Sprintf(
				"%s %s lanes=%d: %.4f allocs/pkt exceeds the %.4f budget",
				p.Scenario, p.Engine, p.Lanes, p.AllocsPerPkt, maxAllocs))
		}
	}
	return violations
}

// FormatStream renders the streaming replay comparison.
func FormatStream(points []StreamPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %4s %-12s %6s %6s %8s %12s %10s %11s %8s\n",
		"Scenario", "k", "engine", "lanes", "batch", "drains", "pkts/s", "ns/pkt", "allocs/pkt", "speedup")
	fmt.Fprintln(&b, strings.Repeat("-", 98))
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %4d %-12s %6d %6d %8d %12.0f %10.1f %11.2f %7.1fx\n",
			p.Scenario, p.K, p.Engine, p.Lanes, p.BatchSize, p.Drains,
			p.PktsPerSec, p.NsPerPkt, p.AllocsPerPkt, p.Speedup)
	}
	return b.String()
}

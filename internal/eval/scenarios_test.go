package eval

import (
	"testing"

	"lyra/internal/dataplane"
	"lyra/internal/topo"
)

// scenarioFixture deploys one scenario on the testbed and flattens its
// trace for one deployment's engine.
func scenarioFixture(t testing.TB, sc Scenario, nPkts int) (*dataplane.Deployment, []string, []dataplane.TraceRecord) {
	t.Helper()
	dep, path, err := sc.Deploy(topo.Testbed())
	if err != nil {
		t.Fatalf("%s: deploy: %v", sc.Name, err)
	}
	return dep, path, sc.Trace(nPkts, 17)
}

// openScenarioStream opens a stream on a fresh deployment of sc.
func openScenarioStream(t testing.TB, sc Scenario, path []string, lanes, batch int, tier dataplane.ExecutorTier) (*dataplane.Stream, *dataplane.Engine, *dataplane.Deployment) {
	t.Helper()
	dep, _, err := sc.Deploy(topo.Testbed())
	if err != nil {
		t.Fatalf("%s: deploy: %v", sc.Name, err)
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	key, err := sc.FlowKey(eng)
	if err != nil {
		t.Fatalf("%s: flow key: %v", sc.Name, err)
	}
	s, err := dep.OpenStream(path, dataplane.StreamOptions{
		Tier: tier, Lanes: lanes, BatchSize: 16, FlowKey: key,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, eng, dep
}

// TestScenarioStreamTierEquivalence certifies the acceptance property:
// for every scenario, streaming replay is byte-identical per packet to
// one-shot single-worker execution, on the interpreter and compiled
// tiers — at one lane always, and at four lanes for the
// lane-safe workloads (the sketch's cross-flow rows are exempt by
// contract; TestSketchMergedExport covers its multi-lane story).
func TestScenarioStreamTierEquivalence(t *testing.T) {
	for _, sc := range Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			refDep, path, recs := scenarioFixture(t, sc, 500)
			refEng, err := refDep.Engine()
			if err != nil {
				t.Fatal(err)
			}
			refExec, err := refDep.ExecutorFor(dataplane.TierCompiled)
			if err != nil {
				t.Fatal(err)
			}
			ref := refEng.FlattenTrace(recs, sc.TSField)
			if err := refExec.RunBatch(path, nil, ref, 1); err != nil {
				t.Fatal(err)
			}

			laneSet := []int{1}
			if sc.LaneSafe {
				laneSet = append(laneSet, 4)
			}
			for _, tier := range []dataplane.ExecutorTier{
				dataplane.TierInterpreter, dataplane.TierCompiled,
			} {
				for _, lanes := range laneSet {
					s, eng, _ := openScenarioStream(t, sc, path, lanes, 16, tier)
					got := eng.FlattenTrace(recs, sc.TSField)
					for off := 0; off < len(got); off += 37 {
						hi := off + 37
						if hi > len(got) {
							hi = len(got)
						}
						if err := s.Feed(got[off:hi]...); err != nil {
							t.Fatal(err)
						}
					}
					s.Close()
					for i := range got {
						if diff := dataplane.DiffPackets(ref[i].Packet(), got[i].Packet(), nil); len(diff) > 0 {
							t.Fatalf("%s tier %v lanes %d: packet %d diverges from one-shot: %v",
								sc.Name, tier, lanes, i, diff)
						}
					}
				}
			}
		})
	}
}

// flowStateOf reads one flow key's observable state — extern entries and
// per-flow global cells, unioned/summed across the path's switches — from
// a closed stream.
func flowStateOf(t *testing.T, sc Scenario, s *dataplane.Stream, path []string, key uint64) map[string]uint64 {
	t.Helper()
	state := map[string]uint64{}
	lane := s.LaneOf(key)
	for _, ext := range sc.StateExterns {
		for _, sw := range path {
			if v, ok, err := s.TableEntry(lane, sw, ext, key); err == nil && ok {
				state[ext] = v
				break
			}
		}
	}
	for _, g := range sc.StateGlobals {
		var sum uint64
		for _, sw := range path {
			if v, err := s.GlobalAt(lane, sw, g, key); err == nil {
				sum += v
			}
		}
		state[g] = sum
	}
	return state
}

// TestLaneAffinityDeterminism is the workers=1 vs workers=N check for the
// NAT and flowlet scenarios: identical per-packet outputs AND identical
// per-flow final state (connection entries, flowlet registers) no matter
// how many lanes the stream fans across, on the compiled tier. Runs under
// -race in CI, so the parallel drain path is also exercised for races.
func TestLaneAffinityDeterminism(t *testing.T) {
	for _, name := range []string{"nat", "flowlet"} {
		sc, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q missing", name)
		}
		t.Run(name, func(t *testing.T) {
			_, path, recs := scenarioFixture(t, sc, 600)
			for _, tier := range []dataplane.ExecutorTier{dataplane.TierCompiled} {
				s1, eng1, _ := openScenarioStream(t, sc, path, 1, 16, tier)
				sN, engN, _ := openScenarioStream(t, sc, path, 4, 16, tier)
				p1 := eng1.FlattenTrace(recs, sc.TSField)
				pN := engN.FlattenTrace(recs, sc.TSField)
				if err := s1.Feed(p1...); err != nil {
					t.Fatal(err)
				}
				if err := sN.Feed(pN...); err != nil {
					t.Fatal(err)
				}
				s1.Close()
				sN.Close()
				for i := range p1 {
					if diff := dataplane.DiffPackets(p1[i].Packet(), pN[i].Packet(), nil); len(diff) > 0 {
						t.Fatalf("%s %v: packet %d differs between 1 and 4 lanes: %v", name, tier, i, diff)
					}
				}
				// Per-flow final state: every flow key the trace produced
				// must read back identically from both streams.
				key, err := sc.FlowKey(eng1)
				if err != nil {
					t.Fatal(err)
				}
				seen := map[uint64]bool{}
				fresh := eng1.FlattenTrace(recs, sc.TSField)
				for _, f := range fresh {
					k := key(f)
					if seen[k] {
						continue
					}
					seen[k] = true
					st1 := flowStateOf(t, sc, s1, path, k)
					stN := flowStateOf(t, sc, sN, path, k)
					if len(st1) != len(stN) {
						t.Fatalf("%s %v flow %#x: state shape differs: %v vs %v", name, tier, k, st1, stN)
					}
					for what, v1 := range st1 {
						if vN, ok := stN[what]; !ok || vN != v1 {
							t.Fatalf("%s %v flow %#x: %s = %d at 1 lane, %d at 4 lanes",
								name, tier, k, what, v1, vN)
						}
					}
				}
				if len(seen) < 2 {
					t.Fatalf("%s: trace produced %d distinct flows; determinism check is vacuous", name, len(seen))
				}
			}
		})
	}
}

// TestSketchMergedExport covers the sketch's multi-lane story: per-lane
// partial rows summed with MergedGlobal equal the single-lane rows cell
// by cell, because every row write is a pure increment.
func TestSketchMergedExport(t *testing.T) {
	sc, ok := ScenarioByName("sketch")
	if !ok {
		t.Fatal("sketch scenario missing")
	}
	_, path, recs := scenarioFixture(t, sc, 800)
	s1, eng1, _ := openScenarioStream(t, sc, path, 1, 16, dataplane.TierCompiled)
	sN, engN, _ := openScenarioStream(t, sc, path, 4, 16, dataplane.TierCompiled)
	p1 := eng1.FlattenTrace(recs, sc.TSField)
	pN := engN.FlattenTrace(recs, sc.TSField)
	if err := s1.Feed(p1...); err != nil {
		t.Fatal(err)
	}
	if err := sN.Feed(pN...); err != nil {
		t.Fatal(err)
	}
	s1.Close()
	sN.Close()
	hot := 0
	for _, f := range p1 {
		if p := f.Packet(); p.Fields["hh_meta.hot"] == 1 {
			hot++
		}
	}
	if hot == 0 {
		t.Fatal("no packet crossed the heavy-hitter threshold; trace too light")
	}
	for _, row := range sc.StateGlobals {
		for _, sw := range path {
			m1, err1 := s1.MergedGlobal(sw, row)
			mN, errN := sN.MergedGlobal(sw, row)
			if (err1 == nil) != (errN == nil) {
				t.Fatalf("%s on %s: availability differs: %v vs %v", row, sw, err1, errN)
			}
			if err1 != nil {
				continue
			}
			for i := range m1 {
				if m1[i] != mN[i] {
					t.Fatalf("%s[%d] on %s: %d at 1 lane, %d merged across 4 lanes", row, i, sw, m1[i], mN[i])
				}
			}
		}
	}
}

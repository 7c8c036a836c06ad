package dataplane

import (
	"math/rand"
	"testing"
)

// streamSrc is the stream suite's stateful workload: a per-flow sequence
// counter in a register array plus a first-packet-learned connection
// table, both keyed by flow.id. Flow ids stay below 16 in every trace so
// the register index (id & 15) is the id itself — the lane-affinity
// contract (state interactions confined to equal flow keys) holds for
// FlowKey = flow.id.
const streamSrc = `
header_type flow_t { bit[32] id; bit[32] a; bit[32] seq; bit[32] out; }
header flow_t flow;
pipeline[S]{track};
algorithm track {
  extern dict<bit[32] k, bit[32] v>[64] conn;
  global bit[32][16] cnt;
  bit[32] idx;
  idx = flow.id & 15;
  cnt[idx] = cnt[idx] + 1;
  flow.seq = cnt[idx];
  if (flow.id in conn) {
    flow.out = conn[flow.id];
  } else {
    insert(conn, flow.id, flow.a);
    flow.out = flow.a;
  }
}
`

const streamScope = `track: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]`

func streamDeployment(t testing.TB) (*Deployment, [][]string) {
	t.Helper()
	plan, _ := compile(t, streamSrc, streamScope)
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatalf("deployment: %v", err)
	}
	return dep, flowPaths(t, plan, "track")
}

// streamTrace builds a flow-ordered trace: nFlows interleaved flows with
// ids in [0,16), each packet carrying a random payload field.
func streamTrace(rng *rand.Rand, nFlows, nPkts int) []TraceRecord {
	if nFlows > 16 {
		nFlows = 16
	}
	recs := make([]TraceRecord, nPkts)
	for i := range recs {
		recs[i] = TraceRecord{
			TS: uint64(100 + i*10),
			Fields: map[string]uint64{
				"flow.id": uint64(rng.Intn(nFlows)),
				"flow.a":  uint64(rng.Intn(1 << 20)),
			},
			Valid: []string{"flow"},
		}
	}
	return recs
}

// feedChunked feeds a trace through a stream in random-size chunks with
// occasional explicit flushes — the shape a long-lived capture replay has.
func feedChunked(t *testing.T, s *Stream, pkts []*FlatPacket, rng *rand.Rand) {
	t.Helper()
	for off := 0; off < len(pkts); {
		n := 1 + rng.Intn(7)
		if off+n > len(pkts) {
			n = len(pkts) - off
		}
		if err := s.Feed(pkts[off : off+n]...); err != nil {
			t.Fatalf("feed: %v", err)
		}
		off += n
		if rng.Intn(4) == 0 {
			s.Flush()
		}
	}
	s.Close()
}

// TestStreamVsOneShot is the core streaming property: replaying a chunked
// flow-ordered trace through OpenStream — any tier, any lane count — is
// byte-identical per packet to a one-shot single-worker RunBatch over the
// concatenated trace.
func TestStreamVsOneShot(t *testing.T) {
	plan, _ := compile(t, streamSrc, streamScope)
	paths := flowPaths(t, plan, "track")
	ctx := &Context{SwitchID: 3, IngressTS: 50}
	rng := rand.New(rand.NewSource(11))
	recs := streamTrace(rng, 12, 300)

	for _, path := range paths {
		// Reference: one-shot compiled batch, one lane, fresh deployment.
		refDep, err := NewDeployment(plan, NewTables())
		if err != nil {
			t.Fatal(err)
		}
		refComp, err := refDep.Compiled()
		if err != nil {
			t.Fatal(err)
		}
		ref := refComp.Engine().FlattenTrace(recs, "")
		refComp.RunBatch(path, ctx, ref, 1)

		for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
			for _, lanes := range []int{1, 4} {
				dep, err := NewDeployment(plan, NewTables())
				if err != nil {
					t.Fatal(err)
				}
				eng, err := dep.Engine()
				if err != nil {
					t.Fatal(err)
				}
				key, err := eng.FlowKeyField("flow.id")
				if err != nil {
					t.Fatal(err)
				}
				s, err := dep.OpenStream(path, StreamOptions{
					Tier: tier, Lanes: lanes, BatchSize: 16, FlowKey: key, Ctx: ctx,
				})
				if err != nil {
					t.Fatal(err)
				}
				got := eng.FlattenTrace(recs, "")
				feedChunked(t, s, got, rand.New(rand.NewSource(int64(lanes)*7+int64(tier))))
				for i := range got {
					if diff := DiffPackets(ref[i].Packet(), got[i].Packet(), nil); len(diff) > 0 {
						t.Fatalf("tier %v lanes %d path %v packet %d diverges from one-shot: %v",
							tier, lanes, path, i, diff)
					}
				}
				if st := s.Stats(); st.Packets != uint64(len(recs)) {
					t.Fatalf("stats counted %d packets, want %d", st.Packets, len(recs))
				}
			}
		}
	}
}

// TestStreamBackpressure pins the memory bound: Feed never holds more
// than Lanes×BatchSize packets, and a full lane forces a drain round.
func TestStreamBackpressure(t *testing.T) {
	dep, paths := streamDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	key, err := eng.FlowKeyField("flow.id")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dep.OpenStream(paths[0], StreamOptions{Lanes: 2, BatchSize: 8, FlowKey: key})
	if err != nil {
		t.Fatal(err)
	}
	// Pinned: a stream opened without naming a tier runs the reference.
	if got := s.Stats().Tier; got != TierInterpreter.String() {
		t.Fatalf("zero-value StreamOptions.Tier opened a %q stream, want %q", got, TierInterpreter)
	}
	rng := rand.New(rand.NewSource(3))
	pkts := eng.FlattenTrace(streamTrace(rng, 6, 200), "")
	for _, f := range pkts {
		if err := s.Feed(f); err != nil {
			t.Fatal(err)
		}
		held := 0
		for _, p := range s.pend {
			held += len(p)
		}
		if held > 2*8 {
			t.Fatalf("stream holds %d packets, bound is %d", held, 2*8)
		}
	}
	st := s.Stats()
	if st.Drains == 0 {
		t.Fatal("200 packets through 2×8 buffers never forced a drain")
	}
	s.Close()
	if st := s.Stats(); st.Packets != 200 {
		t.Fatalf("counted %d packets, want 200", st.Packets)
	}
	if err := s.Feed(pkts[0]); err == nil {
		t.Fatal("Feed after Close should fail")
	}
}

// TestStreamStateReadout checks the per-lane state inspection API against
// ground truth computed from the trace: learned connection entries land on
// the flow's lane, per-flow counters match packet counts, and MergedGlobal
// reassembles the full register array across lanes.
func TestStreamStateReadout(t *testing.T) {
	dep, paths := streamDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	key, err := eng.FlowKeyField("flow.id")
	if err != nil {
		t.Fatal(err)
	}
	path := paths[0]
	s, err := dep.OpenStream(path, StreamOptions{Lanes: 3, BatchSize: 8, FlowKey: key, Tier: TierCompiled})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	recs := streamTrace(rng, 8, 160)
	pkts := eng.FlattenTrace(recs, "")
	if err := s.Feed(pkts...); err != nil {
		t.Fatal(err)
	}
	s.Close()

	counts := map[uint64]uint64{}
	firstA := map[uint64]uint64{}
	for _, r := range recs {
		id := r.Fields["flow.id"]
		counts[id]++
		if _, ok := firstA[id]; !ok {
			firstA[id] = r.Fields["flow.a"]
		}
	}
	// The conn extern lives on whichever path switches host its shards;
	// check the union of the path's lane-local views.
	for id, want := range firstA {
		lane := s.LaneOf(id)
		var got uint64
		found := false
		for _, sw := range path {
			if v, ok, err := s.TableEntry(lane, sw, "conn", id); err == nil && ok {
				got, found = v, true
				break
			}
		}
		if !found || got != want {
			t.Fatalf("flow %d: learned conn entry = (%d,%v), want (%d,true)", id, got, found, want)
		}
	}
	// cnt[id] accumulates on the switch unit that owns the write; sum
	// MergedGlobal across path switches to get trace-wide totals.
	for id, want := range counts {
		var got uint64
		for _, sw := range path {
			m, err := s.MergedGlobal(sw, "cnt")
			if err != nil {
				continue
			}
			got += m[id]
		}
		if got != want {
			t.Fatalf("flow %d: merged cnt = %d, want %d", id, got, want)
		}
		lane := s.LaneOf(id)
		var perLane uint64
		for _, sw := range path {
			if v, err := s.GlobalAt(lane, sw, "cnt", id); err == nil {
				perLane += v
			}
		}
		if perLane != want {
			t.Fatalf("flow %d: lane %d cnt = %d, want %d", id, lane, perLane, want)
		}
	}
}

// TestStreamZeroAlloc is the streaming acceptance gate: once lanes are
// warm (all flows learned), Feed through the compiled tier allocates
// nothing per packet at Lanes=1 (TestStreamMultiLaneAllocBound: Lanes=4).
func TestStreamZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	for _, tier := range []ExecutorTier{TierCompiled} {
		dep, paths := streamDeployment(t)
		eng, err := dep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		key, err := eng.FlowKeyField("flow.id")
		if err != nil {
			t.Fatal(err)
		}
		s, err := dep.OpenStream(paths[0], StreamOptions{Tier: tier, Lanes: 1, BatchSize: 32, FlowKey: key})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(5))
		tmpl := eng.FlattenTrace(streamTrace(rng, 16, 64), "")
		batch := make([]*FlatPacket, len(tmpl))
		for i := range batch {
			batch[i] = eng.NewFlatPacket()
		}
		refresh := func() {
			for i := range batch {
				batch[i].CopyFrom(tmpl[i])
			}
		}
		for i := 0; i < 4; i++ { // warm: learn all flows, size COW maps
			refresh()
			if err := s.Feed(batch...); err != nil {
				t.Fatal(err)
			}
			s.Flush()
		}
		allocs := testing.AllocsPerRun(50, func() {
			refresh()
			if err := s.Feed(batch...); err != nil {
				t.Fatal(err)
			}
			s.Flush()
		})
		if perPkt := allocs / float64(len(batch)); perPkt != 0 {
			t.Fatalf("%v stream steady state allocates %.3f per packet, want 0", tier, perPkt)
		}
		s.Close()
	}
}

// TestStreamMultiLaneAllocBound pins the parallel drain overhead to
// nothing: multi-lane streams dispatch drains to persistent parked
// workers (a channel send plus a WaitGroup count), so even at Lanes=4
// the steady state allocates zero per packet.
func TestStreamMultiLaneAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is not meaningful under -race")
	}
	dep, paths := streamDeployment(t)
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	key, err := eng.FlowKeyField("flow.id")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dep.OpenStream(paths[0], StreamOptions{Tier: TierCompiled, Lanes: 4, BatchSize: 64, FlowKey: key})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	tmpl := eng.FlattenTrace(streamTrace(rng, 16, 256), "")
	batch := make([]*FlatPacket, len(tmpl))
	for i := range batch {
		batch[i] = eng.NewFlatPacket()
	}
	refresh := func() {
		for i := range batch {
			batch[i].CopyFrom(tmpl[i])
		}
	}
	for i := 0; i < 4; i++ {
		refresh()
		if err := s.Feed(batch...); err != nil {
			t.Fatal(err)
		}
		s.Flush()
	}
	allocs := testing.AllocsPerRun(20, func() {
		refresh()
		if err := s.Feed(batch...); err != nil {
			t.Fatal(err)
		}
		s.Flush()
	})
	if perPkt := allocs / float64(len(batch)); perPkt != 0 {
		t.Fatalf("4-lane stream allocates %.3f per packet, want 0", perPkt)
	}
	s.Close()
}

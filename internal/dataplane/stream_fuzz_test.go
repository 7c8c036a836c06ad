package dataplane

import (
	"math/rand"
	"testing"
)

// FuzzStreamEquivalence drives the streaming replay path with fuzzer-
// chosen traffic shapes — flow mix, chunk sizes, lane count, batch depth,
// flush points — and asserts the invariant the whole subsystem rests on:
// replaying a chunked flow-ordered trace through OpenStream is
// byte-identical, packet by packet, to a one-shot single-worker RunBatch
// over the concatenated trace, on both tiers.
func FuzzStreamEquivalence(f *testing.F) {
	plan, _ := compile(f, streamSrc, streamScope)
	paths := flowPaths(f, plan, "track")

	f.Add(int64(1), uint8(1), uint8(1), uint16(24))
	f.Add(int64(7), uint8(3), uint8(4), uint16(120))
	f.Add(int64(42), uint8(6), uint8(32), uint16(300))
	f.Add(int64(1234), uint8(2), uint8(7), uint16(65))

	f.Fuzz(func(t *testing.T, seed int64, lanes, batch uint8, nPkts uint16) {
		nLanes := 1 + int(lanes)%6
		nBatch := 1 + int(batch)%32
		n := 1 + int(nPkts)%400
		rng := rand.New(rand.NewSource(seed))
		recs := streamTrace(rng, 1+rng.Intn(16), n)
		ctx := &Context{SwitchID: 2, IngressTS: 77}
		path := paths[rng.Intn(len(paths))]

		refDep, err := NewDeployment(plan, NewTables())
		if err != nil {
			t.Fatal(err)
		}
		refEng, err := refDep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		ref := refEng.FlattenTrace(recs, "")
		refEng.runBatch(path, ctx, ref, 1)

		for _, tier := range []ExecutorTier{TierInterpreter, TierCompiled} {
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
				Tier: tier, Lanes: nLanes, BatchSize: nBatch, FlowKey: key, Ctx: ctx,
			})
			if err != nil {
				t.Fatal(err)
			}
			got := eng.FlattenTrace(recs, "")
			// Chunked feed with fuzzer-scheduled flushes.
			crng := rand.New(rand.NewSource(seed ^ 0x5ca1ab1e))
			for off := 0; off < len(got); {
				c := 1 + crng.Intn(9)
				if off+c > len(got) {
					c = len(got) - off
				}
				if err := s.Feed(got[off : off+c]...); err != nil {
					t.Fatal(err)
				}
				off += c
				if crng.Intn(3) == 0 {
					s.Flush()
				}
			}
			s.Close()
			for i := range got {
				if diff := DiffPackets(ref[i].Packet(), got[i].Packet(), nil); len(diff) > 0 {
					t.Fatalf("tier %v lanes=%d batch=%d packet %d diverges from one-shot: %v",
						tier, nLanes, nBatch, i, diff)
				}
			}
		}
	})
}

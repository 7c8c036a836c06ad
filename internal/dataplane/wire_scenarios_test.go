package dataplane_test

import (
	"math/rand"
	"runtime"
	"testing"

	"lyra/internal/dataplane"
	"lyra/internal/eval"
	"lyra/internal/topo"
)

// bytesPerCall reports the heap bytes one call of fn allocates: the
// average over 4096 calls, rounded down, so an allocation the runtime makes
// once on its own does not count.
func bytesPerCall(fn func(i int)) uint64 {
	const n = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / n
}

var (
	flatSink *dataplane.FlatPacket
	slabSink []uint64
)

// TestFlatPacketBytes pins what a parsed frame costs on the four layouts
// the wire-stream benchmark parses into — the load balancer and the
// stateful scenario library: at most a 64-byte packet header plus its slab
// in the slab's own size class, nothing else.
func TestFlatPacketBytes(t *testing.T) {
	if dataplane.RaceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	type layout struct {
		name   string
		dep    *dataplane.Deployment
		frames [][]byte
	}
	lb := layout{name: "lb", dep: dataplane.LBDeployment(t)}
	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 64; i++ {
		frame, err := dataplane.Serialize(lb.dep.Plan.Input.IR, dataplane.RandomLBPacket(rng), nil)
		if err != nil {
			t.Fatal(err)
		}
		lb.frames = append(lb.frames, frame)
	}
	layouts := []layout{lb}
	for _, sc := range eval.Scenarios() {
		dep, _, err := sc.Deploy(topo.Testbed())
		if err != nil {
			t.Fatal(err)
		}
		l := layout{name: sc.Name, dep: dep}
		for _, rec := range sc.Trace(64, 20) {
			frame, err := dataplane.Serialize(dep.Plan.Input.IR, rec.Packet(sc.TSField), nil)
			if err != nil {
				t.Fatal(err)
			}
			l.frames = append(l.frames, frame)
		}
		layouts = append(layouts, l)
	}
	for _, l := range layouts {
		eng, err := l.dep.Engine()
		if err != nil {
			t.Fatal(err)
		}
		f, _, err := eng.ParseBytesFlat(l.frames[0])
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		words := dataplane.SlabWords(f)
		slab := bytesPerCall(func(int) { slabSink = make([]uint64, words) })
		got := bytesPerCall(func(i int) { flatSink, _, _ = eng.ParseBytesFlat(l.frames[i%len(l.frames)]) })
		t.Logf("%s: %d-word slab (%d B), %d B per parsed frame", l.name, words, slab, got)
		if got > 64+slab {
			t.Errorf("%s: a parsed frame costs %d bytes, want <= 64 + %d (its %d-word slab)", l.name, got, slab, words)
		}
	}
}

// TestWireFlatScenarios runs the byte-level wire oracle over the stateful
// scenario library as deployed (MULTI-SW layouts) on the scenarios' own
// traffic: every trace frame, a truncation of it, and noise of its length.
func TestWireFlatScenarios(t *testing.T) {
	for _, sc := range eval.Scenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			dep, _, err := sc.Deploy(topo.Testbed())
			if err != nil {
				t.Fatal(err)
			}
			eng, err := dep.Engine()
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(19))
			for _, rec := range sc.Trace(200, 19) {
				frame, err := dataplane.Serialize(dep.Plan.Input.IR, rec.Packet(sc.TSField), nil)
				if err != nil {
					t.Fatal(err)
				}
				dataplane.CheckWireFlatAgreement(t, eng, frame)
				dataplane.CheckWireFlatAgreement(t, eng, frame[:rng.Intn(len(frame)+1)])
				noise := make([]byte, len(frame))
				rng.Read(noise)
				dataplane.CheckWireFlatAgreement(t, eng, noise)
			}
		})
	}
}

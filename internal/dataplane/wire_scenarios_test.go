package dataplane_test

import (
	"math/rand"
	"testing"

	"lyra/internal/dataplane"
	"lyra/internal/eval"
	"lyra/internal/topo"
)

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

package lyra

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lyra/internal/topo"
)

// fullMesh is n Tofino switches S00, S01, … each linked to every other: the
// number of simple paths between two of them grows factorially with n.
func fullMesh(t *testing.T, n int) *Network {
	t.Helper()
	net := topo.New()
	for i := 0; i < n; i++ {
		if _, err := net.AddSwitch(fmt.Sprintf("S%02d", i), "S", Tofino32Q); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := net.AddLink(fmt.Sprintf("S%02d", i), fmt.Sprintf("S%02d", j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return net
}

// meshACL is a one-branch program for a scope whose every switch may carry a
// flow from S00 to S01.
const (
	meshACL = `
header_type ipv4_t { bit[32] srcAddr; bit[8] protocol; }
header ipv4_t ipv4;
pipeline[ACL]{acl};
algorithm acl {
  if (ipv4.protocol == 6) {
    ipv4.protocol = 17;
  }
}
`
	meshScope = "acl: [ S* | MULTI-SW | (S00->S01) ]"
)

// TestPathBudgetFailsTheCompile: a scope with more flow paths than the path
// budget (a 12-switch full mesh has about 10^7 from one switch to another)
// fails the compile with topo.ErrPathLimit after one walk to the budget — no
// cheaper than that, and not after walking it again for each consumer.
func TestPathBudgetFailsTheCompile(t *testing.T) {
	net := fullMesh(t, 12)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err := New().Compile(context.Background(), meshACL, meshScope, net)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, topo.ErrPathLimit) {
		t.Fatalf("err = %v, want errors.Is(err, topo.ErrPathLimit)", err)
	}
	mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	t.Logf("failed after %v, %.1f MB allocated: %v", elapsed, mb, err)
	if raceEnabled {
		return // the detector slows the walk and inflates nothing we measure here
	}
	// Materialising every path within the budget, as resolution once did,
	// allocated 298 MB and took 0.61 s; the walk allocates next to nothing and
	// takes under half that. Time is held to twice the old figure, so a loaded
	// host does not fail it.
	if mb > 298 {
		t.Errorf("the failing compile allocated %.1f MB, more than materialising every path did (298 MB)", mb)
	}
	if elapsed > 1220*time.Millisecond {
		t.Errorf("the failing compile took %v, more than twice what materialising every path did (0.61 s)", elapsed)
	}
}

// TestEncodeHonoursDeadline: a scope of long flow paths (a 9-switch full
// mesh, 13,700 paths from S00 to S01) takes the encoder most of a minute; a
// compile under a 2 s deadline must give up at it with ErrTimeout, not after
// encoding everything.
func TestEncodeHonoursDeadline(t *testing.T) {
	net := fullMesh(t, 9)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err := New().Compile(ctx, meshACL, meshScope, net)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want errors.Is(err, ErrTimeout)", err)
	}
	if elapsed > 3*time.Second {
		t.Errorf("the compile returned %v after it started, past its 2 s deadline by more than a second", elapsed)
	}
}

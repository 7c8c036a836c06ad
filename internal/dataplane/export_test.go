package dataplane

import "testing"

// CheckWireFlatAgreement lets the external test package, which may import
// internal/eval, run the byte-level wire oracle.
var CheckWireFlatAgreement = checkWireFlatAgreement

// RaceEnabled and RandomLBPacket hand the external test package the
// in-package tests' race flag and load-balancer traffic.
var (
	RaceEnabled    = raceEnabled
	RandomLBPacket = randomLBPacket
)

// LBDeployment is the deployed load balancer the in-package tests run.
func LBDeployment(t testing.TB) *Deployment {
	dep, _, _ := lbDeployment(t)
	return dep
}

// SlabWords reports the length of a packet's word slab.
func SlabWords(f *FlatPacket) int { return len(f.w) }

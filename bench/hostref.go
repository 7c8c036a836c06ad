package main

import (
	"fmt"
	"math"
	"syscall"
	"time"
	"unsafe"
)

// The host-speed reference. On a shared host the same code runs at a speed
// that drifts by tens of per cent over tens of seconds as neighbours come
// and go; a register-only loop does not see it, memory-bound code does,
// and everything measured here is memory-bound Go. So the loop runs a
// small fixed memory-bound kernel after every op and uses its time as the
// exchange rate between "this moment" and the host's best moment in the
// run. The kernel belongs to the benchmark, not to the system under test:
// a change to the repository cannot make it faster.

const (
	refWords = 8 << 20 // 32 MB of uint32: larger than any private cache
	refSteps = 64 << 10
	refCopy  = 8 << 20
	// refNominalMs is the host speed times are quoted at: one pass of the
	// kernel takes about this long on the recorded host when it is quiet.
	// Its value only sets the scale; it is the same for every commit.
	refNominalMs = 10.0
	// refSmooth is how many neighbours on each side the kernel's time is
	// median-smoothed over: one pass is a ~10 ms sample and can be unlucky.
	refSmooth = 2
)

type hostRef struct {
	mem      []byte // the mapping the three slices below are cut from
	next     []uint32
	src, dst []byte
	sink     uint32
}

// newHostRef maps the kernel's memory outside the Go heap: 48 MB of live
// heap would double into 96 MB of collector headroom and change the GC
// pacing of the very system being measured.
func newHostRef() (*hostRef, error) {
	mem, err := syscall.Mmap(-1, 0, 4*refWords+2*refCopy, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the host reference kernel's memory: %w", err)
	}
	r := &hostRef{
		mem:  mem,
		next: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), refWords),
		src:  mem[4*refWords : 4*refWords+refCopy],
		dst:  mem[4*refWords+refCopy:],
	}
	// x -> a*x + c (mod 2^k) with a = 1 (mod 4) and c odd is one cycle
	// through every index (Hull-Dobell), in an order no prefetcher follows.
	for i := range r.next {
		r.next[i] = (uint32(i)*2654435761 + 12345) % refWords
	}
	for i := range r.src {
		r.src[i] = byte(i) // touch every page: resident from here on
	}
	copy(r.dst, r.src)
	return r, nil
}

// close unmaps the kernel's memory.
func (r *hostRef) close() {
	_ = syscall.Munmap(r.mem) // fails only for a mapping that is not ours
}

// residentMB is the kernel's own footprint in the units of peak_rss_mb,
// which it is taken out of: every page is resident from before set-up
// until exit.
func (r *hostRef) residentMB() float64 {
	return float64(len(r.mem)) / (1 << 20)
}

// run times one pass of the kernel: a dependent chain of cache-missing
// loads (latency) and a block copy (bandwidth). It allocates nothing.
func (r *hostRef) run() time.Duration {
	start := time.Now()
	x := r.sink
	for i := 0; i < refSteps; i++ {
		x = r.next[x]
	}
	r.sink = x
	copy(r.dst, r.src)
	return time.Since(start)
}

// hostFactor converts a time measured while the kernel took refMs to the
// nominal host speed. The conversion is proportional: within runs of the
// A/A study, op time moved with kernel time at a log-log slope of 0.7 to
// 1.15 on every workload (hostSlope; AA.md), and proportional correction
// gave the smallest spread between runs on all four.
func hostFactor(refMs float64) float64 {
	if refMs <= 0 {
		return 1
	}
	return refNominalMs / refMs
}

// hostCorrected returns every op time converted to the nominal host speed,
// using the kernel passes that ran next to it.
func hostCorrected(opMs, refMs []float64) []float64 {
	out := make([]float64, len(opMs))
	for i, v := range opMs {
		lo, hi := max(i-refSmooth, 0), min(i+refSmooth+1, len(refMs))
		out[i] = v * hostFactor(median(refMs[lo:hi]))
	}
	return out
}

// hostSlope checks the proportionality hostFactor assumes, from one run:
// the least-squares slope of log(op time) on log(kernel time) over medians
// of ten consecutive ops. One run's estimate is rough (the two correlate at
// 0.3 to 0.8, and a quiet host gives the fit nothing to hold on to); pooled
// over the runs of an A/A study it should stay near 1.
func hostSlope(opMs, refMs []float64) float64 {
	var xs, ys []float64
	for i := 0; i+10 <= len(opMs); i += 10 {
		xs = append(xs, math.Log(median(refMs[i:i+10])))
		ys = append(ys, math.Log(median(opMs[i:i+10])))
	}
	if len(xs) < 4 {
		return 0
	}
	var mx, my, sxy, sxx float64
	for i := range xs {
		mx += xs[i] / float64(len(xs))
		my += ys[i] / float64(len(xs))
	}
	for i := range xs {
		sxy += (xs[i] - mx) * (ys[i] - my)
		sxx += (xs[i] - mx) * (xs[i] - mx)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}

package asic

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// sortedStrategies is how packPHV ranked a width's strategies before the
// ranking was kept: enumerate, then sort.Slice by waste and word count, on
// every field of every admission. It is the reference rankedStrategies must
// reproduce element for element.
func sortedStrategies(bits int) []PHVWords {
	strategies := PackingStrategies(bits)
	sort.Slice(strategies, func(i, j int) bool {
		wi, wj := strategies[i].Bits()-bits, strategies[j].Bits()-bits
		if wi != wj {
			return wi < wj
		}
		return strategies[i].W8+strategies[i].W16+strategies[i].W32 <
			strategies[j].W8+strategies[j].W16+strategies[j].W32
	})
	return strategies
}

// TestRankedStrategiesMatchSortedEnumeration: the kept ranking equals the
// per-call sort for every width up to maxRanked and past it, with several
// goroutines asking for the same widths at once (run under -race in CI).
func TestRankedStrategiesMatchSortedEnumeration(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < maxRanked+8; i++ {
				bits := 1 + (i*(g+1))%(maxRanked+8) // each goroutine its own order
				if got, want := rankedStrategies(bits), sortedStrategies(bits); !reflect.DeepEqual(got, want) {
					t.Errorf("width %d: ranked %v, sorted %v", bits, got, want)
				}
			}
		}(g)
	}
	wg.Wait()
}

// packPHVSorted is packPHV as it was written before the ranking was kept: the
// reference for TestPackPHVMatchesReference.
func packPHVSorted(m *Model, fields []int) (PHVWords, error) {
	if m.PHV8 == 0 && m.PHV16 == 0 && m.PHV32 == 0 {
		return PHVWords{}, nil
	}
	sorted := append([]int(nil), fields...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var used PHVWords
	for _, bits := range sorted {
		if bits <= 0 {
			continue
		}
		placed := false
		for _, st := range sortedStrategies(bits) {
			if used.W8+st.W8 <= m.PHV8 && used.W16+st.W16 <= m.PHV16 && used.W32+st.W32 <= m.PHV32 {
				used.W8 += st.W8
				used.W16 += st.W16
				used.W32 += st.W32
				placed = true
				break
			}
		}
		if !placed {
			return used, &AllocError{Model: m,
				Reason: fmt.Sprintf("PHV overflow: no packing for %d-bit field (used %d×8b %d×16b %d×32b)", bits, used.W8, used.W16, used.W32)}
		}
	}
	return used, nil
}

// TestPackPHVMatchesReference: random field lists on a roomy and a tight chip
// pack to the same words, and fail with the same text, as the reference.
func TestPackPHVMatchesReference(t *testing.T) {
	tight := &Model{Name: "tight", PHV8: 6, PHV16: 4, PHV32: 3}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		fields := make([]int, rng.Intn(24))
		for j := range fields {
			fields[j] = rng.Intn(300) - 4 // a few non-positive widths, a few past maxRanked
		}
		for _, m := range []*Model{Tofino32Q, tight} {
			got, gerr := packPHV(m, fields)
			want, werr := packPHVSorted(m, fields)
			if got != want || fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s %v: got %v, %v; reference %v, %v", m.Name, fields, got, gerr, want, werr)
			}
		}
	}
}

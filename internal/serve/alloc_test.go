package serve

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"lyra/internal/lang/parser"
)

// TestServeCompileAllocBudget keeps what one cache-miss compile costs the
// daemon and its client proportional to the answer: a few programs of
// testdata/programs under the three scope shapes of the serve-corpus gate
// workload (a Tofino ToR, a Trident-4 Agg, MULTI-SW over both layers), code
// included, each request made a miss by a nonce comment. Both ends run in
// this process, so the count covers the handler, the compile and the client's
// decode. The budget is the measurement when it was set plus 10 %, so
// per-request garbage that creeps back in — in the solver, the emitters, the
// checkers or on the wire — fails here rather than in the gate benchmark. A
// request measured 300 KB and 3.57 k mallocs, against 640 KB and 8.2 k before
// (EXPERIMENTS E23), and 266–271 KB and 2.29 k once the printers appended
// typed pieces instead of formatting and the checkers stopped building a slice
// or a string per line (E36). Once solvers were pooled across solves (E40) it
// measured 227–259 KB and 2.27–2.41 k mallocs over 20 runs (median 240 KB;
// the spread is how many solves find the pool emptied by a collection), and
// the byte budget was the highest of them plus 10 %. Once program names became
// ids in the front end and the daemon kept one network per target, it
// measured 181–225 KB and 1.74–1.91 k mallocs over 20 runs (E47), and the byte
// budget is again the highest plus 10 %; the malloc budget stays. Once the
// client read a compile's answer in one pass and the lexer stopped copying
// source text, it measured 161–215 KB and 1.57–1.76 k mallocs over 20 runs,
// against 176–215 KB and 1.72–1.86 k at the parent (E48), and both budgets
// are the highest plus 10 %: 247,800 → 236,700 bytes and 2,520 → 1,940
// mallocs.
func TestServeCompileAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	const bytesPerRequest, mallocsPerRequest = 236_700, 1940
	var reqs []CompileRequest
	for _, name := range []string{"heavy_hitter", "netcache", "flowlet_switching"} {
		src, err := os.ReadFile("../../testdata/programs/" + name + ".lyra")
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(name+".lyra", src)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range corpusShapes {
			var scope strings.Builder
			for _, a := range prog.Algorithms {
				fmt.Fprintf(&scope, shape, a.Name)
			}
			reqs = append(reqs, CompileRequest{Source: string(src), Scope: scope.String(), Topology: "testbed", IncludeCode: true})
		}
	}
	_, c := newTestDaemon(t, Config{})
	ctx := context.Background()
	sweep := func(round int) {
		for _, req := range reqs {
			req.Source += fmt.Sprintf("\n// nonce %d\n", round)
			resp, err := c.Compile(ctx, req)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			if resp.Cached || resp.Deduped {
				t.Fatalf("request was not a cache miss: %+v", resp)
			}
		}
	}
	sweep(0) // warm-up: the toolchain's lazily built tables, the pools, the connection
	const rounds = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 1; r <= rounds; r++ {
		sweep(r)
	}
	runtime.ReadMemStats(&after)
	n := uint64(rounds * len(reqs))
	bytes := (after.TotalAlloc - before.TotalAlloc) / n
	mallocs := (after.Mallocs - before.Mallocs) / n
	t.Logf("%d requests: %d bytes, %d mallocs per request", n, bytes, mallocs)
	if bytes > bytesPerRequest {
		t.Errorf("a serve compile allocates %d bytes per request, budget %d", bytes, bytesPerRequest)
	}
	if mallocs > mallocsPerRequest {
		t.Errorf("a serve compile makes %d mallocs per request, budget %d", mallocs, mallocsPerRequest)
	}
}

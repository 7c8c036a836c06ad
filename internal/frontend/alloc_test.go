package frontend

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"lyra/internal/lang/checker"
	"lyra/internal/lang/parser"
)

// TestFrontEndAllocBudget keeps what the front end allocates for a small
// compile — parse, check, preprocess and analyze, over every program of
// testdata/programs — from creeping back up. Once program names became ids
// (Var.ID, Program.Fields), and the lowering and the analysis indexed slices
// by them instead of building string- and pointer-keyed maps per compile, a
// program measured 30.3 KB and 556 mallocs, against 43.6 KB and 747 before
// (EXPERIMENTS E47), and the budget was 33,400 bytes. The sources are parsed
// as strings, as core parses a request's. Once the lexer scanned the source
// as a string, its names and literals substrings of it, a program measured
// 29,240 bytes and 395 mallocs in each of 20 runs (E48), and the budget is
// that plus 10 %.
func TestFrontEndAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	const bytesPerProgram = 32_200
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "programs", "*.lyra"))
	if err != nil || len(files) == 0 {
		t.Fatalf("corpus: %v, %d programs", err, len(files))
	}
	srcs := make([]string, len(files))
	for i, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		srcs[i] = string(src)
	}
	sweep := func() {
		for i, src := range srcs {
			prog, err := parser.ParseString(files[i], src)
			if err != nil {
				t.Fatal(err)
			}
			if err := checker.Check(prog); err != nil {
				t.Fatal(err)
			}
			irp, err := Preprocess(prog)
			if err != nil {
				t.Fatal(err)
			}
			Analyze(irp)
		}
	}
	sweep() // warm-up: lazily built tables
	const rounds = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	n := uint64(rounds * len(srcs))
	bytes, mallocs := (after.TotalAlloc-before.TotalAlloc)/n, (after.Mallocs-before.Mallocs)/n
	t.Logf("%d programs: %d bytes, %d mallocs per program", len(srcs), bytes, mallocs)
	if bytes > bytesPerProgram {
		t.Errorf("the front end allocates %d bytes per program, budget %d", bytes, bytesPerProgram)
	}
}

package lexer

import "testing"

// FuzzScan is the native fuzzing harness for the lexer: arbitrary byte
// soup must tokenize without panicking or looping, produce at most one
// token per input byte (plus EOF), and report strictly monotone
// positions. Run with:
//
//	go test ./internal/lang/lexer -fuzz FuzzScan
//
// The checked-in seed corpus lives in testdata/fuzz/FuzzScan.
func FuzzScan(f *testing.F) {
	f.Add([]byte("algorithm a { x = 0x10 << 2; }"))
	f.Add([]byte("bit[32] /* comment */ name // line\n"))
	f.Add([]byte("\"unterminated"))
	f.Fuzz(func(t *testing.T, src []byte) {
		toks, _ := ScanAll("fuzz", string(src))
		if len(toks) > len(src)+1 {
			t.Fatalf("%d tokens from %d bytes", len(toks), len(src))
		}
		prevLine, prevCol := 1, 0
		for _, tk := range toks {
			if tk.Pos.Line < prevLine || (tk.Pos.Line == prevLine && tk.Pos.Col < prevCol) {
				t.Fatalf("position went backwards at %v (prev %d:%d)", tk.Pos, prevLine, prevCol)
			}
			prevLine, prevCol = tk.Pos.Line, tk.Pos.Col
		}
	})
}

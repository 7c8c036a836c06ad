package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"lyra/internal/lang/parser"
)

// corpusShapes are the scope shapes of the serve-corpus benchmark, one line
// per algorithm: a Tofino ToR, a Trident-4 Agg, MULTI-SW over both layers.
var corpusShapes = []string{
	"%s: [ ToR1 | PER-SW | - ]\n",
	"%s: [ Agg1 | PER-SW | - ]\n",
	"%s: [ ToR*,Agg* | MULTI-SW | (Agg*->ToR*) ]\n",
}

// corpusRequests are the requests of the serve-corpus benchmark: every
// program of testdata/programs under each of corpusShapes, in both P4
// dialects, code included.
func corpusRequests(t testing.TB) []CompileRequest {
	files, err := filepath.Glob("../../testdata/programs/*.lyra")
	if err != nil || len(files) == 0 {
		t.Fatalf("no programs: %v", err)
	}
	var reqs []CompileRequest
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := parser.Parse(filepath.Base(file), src)
		if err != nil {
			t.Fatal(err)
		}
		for _, shape := range corpusShapes {
			var scope strings.Builder
			for _, a := range prog.Algorithms {
				fmt.Fprintf(&scope, shape, a.Name)
			}
			for _, dialect := range []string{"p4_14", "p4_16"} {
				reqs = append(reqs, CompileRequest{Source: string(src), Scope: scope.String(), Topology: "testbed", Dialect: dialect, IncludeCode: true})
			}
		}
	}
	return reqs
}

// postRaw sends req to a daemon and returns the response body as sent.
func postRaw(t testing.TB, baseURL string, req CompileRequest) []byte {
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+"/v1/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %v %s", resp.StatusCode, err, raw)
	}
	return raw
}

// escapeHTML is the daemon's body as encoding/json's default encoder would
// have sent it: '<', '>' and '&' only occur inside strings there.
func escapeHTML(raw []byte) []byte {
	return []byte(strings.NewReplacer("<", `\u003c`, ">", `\u003e`, "&", `\u0026`).Replace(string(raw)))
}

// sameAsEncodingJSON decodes body with the client's reader and with
// json.Unmarshal, into fresh values and into values filled beforehand, as a
// CompileResponse and as a SessionResponse, and reports the first
// difference: one failing where the other succeeds, or different values.
func sameAsEncodingJSON(body []byte) error {
	for _, filled := range []bool{false, true} {
		var want, got CompileResponse
		if filled {
			want, got = filledCompileResponse(), filledCompileResponse()
		}
		wantErr := json.Unmarshal(body, &want)
		gotErr := decodeCompileResponse(body, &got)
		if err := compare(wantErr, gotErr, want, got); err != nil {
			return fmt.Errorf("CompileResponse (filled %v): %w", filled, err)
		}
		var wantS, gotS SessionResponse
		if filled {
			wantS = SessionResponse{ID: "old", Compile: filledCompileResponse()}
			gotS = SessionResponse{ID: "old", Compile: filledCompileResponse()}
		}
		wantErr = json.Unmarshal(body, &wantS)
		gotErr = decodeSessionResponse(body, &gotS)
		if err := compare(wantErr, gotErr, wantS, gotS); err != nil {
			return fmt.Errorf("SessionResponse (filled %v): %w", filled, err)
		}
	}
	return nil
}

func compare(wantErr, gotErr error, want, got any) error {
	switch {
	case (wantErr == nil) != (gotErr == nil):
		return fmt.Errorf("encoding/json error %v, reader error %v", wantErr, gotErr)
	case wantErr == nil && !reflect.DeepEqual(want, got):
		return fmt.Errorf("encoding/json decoded %+v, the reader %+v", want, got)
	}
	return nil
}

// filledCompileResponse is a value with every field set, its slices with
// spare capacity, for decoding over.
func filledCompileResponse() CompileResponse {
	sw := make([]ArtifactSummary, 2, 3)
	sw[0] = ArtifactSummary{Switch: "old0", Dialect: "d", LoC: 7, Tables: 2, Code: "c0"}
	sw[1] = ArtifactSummary{Switch: "old1", LoC: 9}
	return CompileResponse{
		Fingerprint: "oldfp", Switches: sw, Degraded: []string{"stale"},
		Cached: true, CompileMs: 1.5, SolveMs: 0.5,
		Phases: append(make([]PhaseMs, 0, 4), PhaseMs{Phase: "parse", Ms: 1}),
	}
}

var (
	corpusOnce   sync.Once
	corpusBodies [][]byte
)

// corpusResponseBodies compiles the serve-corpus requests once per test
// binary and returns the daemon's response bodies.
func corpusResponseBodies(t testing.TB) [][]byte {
	corpusOnce.Do(func() {
		srv := NewServer(Config{})
		ts := httptest.NewServer(srv.Handler())
		defer func() {
			srv.Drain(context.Background())
			ts.Close()
		}()
		for _, req := range corpusRequests(t) {
			corpusBodies = append(corpusBodies, postRaw(t, ts.URL, req))
		}
	})
	if len(corpusBodies) == 0 {
		t.Fatal("no corpus responses")
	}
	return corpusBodies
}

// TestDecodeCorpusResponsesLikeEncodingJSON: the response to every request
// of the serve-corpus benchmark, as the daemon sends it and with its HTML
// characters escaped, decodes to what json.Unmarshal decodes it to.
func TestDecodeCorpusResponsesLikeEncodingJSON(t *testing.T) {
	bodies := corpusResponseBodies(t)
	if len(bodies) != 84 {
		t.Fatalf("%d corpus responses, want 84", len(bodies))
	}
	for i, body := range bodies {
		for _, b := range [][]byte{body, escapeHTML(body)} {
			if err := sameAsEncodingJSON(b); err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
		}
		var resp CompileResponse
		if err := decodeCompileResponse(body, &resp); err != nil || len(resp.Switches) == 0 || resp.Switches[0].Code == "" {
			t.Fatalf("response %d decoded to %+v, %v", i, resp, err)
		}
	}
}

// TestDaemonSendsAngleBracketsRaw: a P4_16 answer carries bit<N> as it is,
// not as \u003c escapes, and means the same as the escaped body.
func TestDaemonSendsAngleBracketsRaw(t *testing.T) {
	_, c := newTestDaemon(t, Config{})
	req := lbRequest()
	req.Dialect, req.IncludeCode = "p4_16", true
	raw := postRaw(t, c.BaseURL, req)
	if !bytes.Contains(raw, []byte("bit<")) || bytes.Contains(raw, []byte(`\u003c`)) {
		t.Fatalf("response does not carry bit< literally: %.200s", raw)
	}
	var plain, escaped CompileResponse
	if err := decodeCompileResponse(raw, &plain); err != nil {
		t.Fatal(err)
	}
	if err := decodeCompileResponse(escapeHTML(raw), &escaped); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, escaped) || !strings.Contains(plain.Switches[0].Code, "bit<") {
		t.Fatalf("the raw and the escaped body decode differently")
	}
}

// decodeSeeds are hand-made bodies, one or more for each way encoding/json
// reads a body.
var decodeSeeds = []string{
	// Unknown members of every kind are skipped.
	`{"fingerprint":"a","extra":{"x":[1,-2.5e3,{"y":null}],"t":true,"f":false,"s":"\n"},"switches":[]}`,
	`{"switches":[{"switch":"s","future":[{}],"loc":3}],"phases":[{"phase":"parse","ms":0.25,"more":"x"}]}`,
	// Keys match case-insensitively, by encoding/json's folding.
	`{"FINGERPRINT":"a","Switches":[{"SWITCH":"s","LoC":3,"TaBlEs":4}],"Compile_MS":2}`,
	"{\"\u017folve_ms\":1.5,\"\\u017fwitches\":[{\"\\u0073witch\":\"x\"}],\"K\u212a\":1}",
	`{"id":"s1","COMPILE":{"fingerprint":"f"},"Id":"s2"}`,
	// The last of a repeated key wins; a repeated array or object decodes
	// over the first one's values.
	`{"fingerprint":"a","fingerprint":"b","cached":true,"cached":false}`,
	`{"switches":[{"switch":"x","loc":1},{"switch":"y"}],"switches":[{"loc":2}]}`,
	`{"switches":[{"switch":"x"},{"switch":"y"}],"switches":[],"switches":[null,null]}`,
	`{"degraded":["a","b"],"degraded":["x"],"degraded":[null,null,"c"]}`,
	`{"compile":{"fingerprint":"a","switches":[{"loc":1}]},"compile":{"cached":true,"switches":[{"tables":2}]}}`,
	// null leaves strings, numbers and bools as they were and sets slices
	// to nil; a null element or object leaves it as it was.
	`{"fingerprint":null,"cached":null,"deduped":null,"compile_ms":null,"switches":null,"degraded":[null],"phases":[null]}`,
	`{"id":null,"compile":null}`,
	`null`,
	` null `,
	// Invalid UTF-8 becomes U+FFFD, in values and keys.
	"{\"fingerprint\":\"a\xffb\xc3\",\"switches\":[{\"code\":\"\xed\xa0\x80 \xe2\x82\"}]}",
	"{\"fingerprint\xff\":\"a\",\"switches\":[{\"switch\":\"\xf0\x9f\x98\x80\"}]}",
	// \u escapes, surrogate pairs, lone and broken surrogates.
	`{"fingerprint":"\ud83d\ude00 \ud800 \udc00x \u00e9 \u0000 \"\\\/\b\f\n\r\t"}`,
	`{"fingerprint":"\ud800\u0041\ud800\ud800\udc00\ud83d"}`,
	`{"fingerprint":"\uDBFF\uDFFF\uD800\\u"}`,
	`{"fingerprint":"\u12"}`,
	`{"fingerprint":"\x"}`,
	`{"fingerprint":"\'"}`,
	"{\"fingerprint\":\"a\tb\"}",
	// Numbers: an int takes no fraction, exponent or out-of-range value; a
	// float takes what fits.
	`{"switches":[{"loc":1.0}]}`,
	`{"switches":[{"loc":1e2}]}`,
	`{"switches":[{"tables":9223372036854775807,"loc":-9223372036854775808}]}`,
	`{"switches":[{"loc":9223372036854775808}]}`,
	`{"switches":[{"loc":-0}]}`,
	`{"compile_ms":1e400}`,
	`{"compile_ms":-0,"solve_ms":1E-400,"phases":[{"ms":12.5e+3}]}`,
	`{"compile_ms":01}`, `{"compile_ms":-}`, `{"compile_ms":1.}`, `{"compile_ms":.5}`, `{"compile_ms":1e}`, `{"compile_ms":+1}`,
	// Values of the wrong type.
	`{"fingerprint":1}`, `{"cached":"true"}`, `{"switches":{}}`, `{"switches":[1]}`,
	`{"degraded":"a"}`, `{"compile_ms":"1"}`, `{"switches":[{"loc":"1"}]}`, `{"compile":[]}`,
	`[]`, `"x"`, `1`, `true`,
	// Syntax: trailing data, commas, literals, an unfinished body.
	`{} {}`, `{}x`, "{}\n", `{},`, `{"a":1,}`, `{,}`, `{"switches":[1,]}`, `{"switches":[,1]}`,
	`{"a" 1}`, `{"a":tru}`, `{"a":nul}`, `{"a":falsey}`, `{"fingerprint":"a"`, `{"fingerprint":"a`, ``, ` `,
	`{"a":[}`, `{"a":{]}`, `{'a':1}`, "\ufeff{}",
}

// nested is a body whose unknown member nests arrays to depth, counting the
// top-level object.
func nested(depth int) string {
	return `{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`
}

// FuzzDecodeCompileResponse holds the client's one-pass reader to
// encoding/json on arbitrary bodies: both accept or both refuse, and what
// they accept decodes to equal values (fresh and filled beforehand, as a
// CompileResponse and as a SessionResponse). Nothing may panic. Seeds:
// corpus answers in both dialects, as sent and HTML-escaped, and the
// hand-made bodies above. Run with:
//
//	go test ./internal/serve -run '^$' -fuzz FuzzDecodeCompileResponse
func FuzzDecodeCompileResponse(f *testing.F) {
	bodies := corpusResponseBodies(f)
	for _, i := range []int{0, 1, 40, 41, 83} { // p4_14 and p4_16 answers
		f.Add(bodies[i])
		f.Add(escapeHTML(bodies[i]))
		f.Add([]byte(`{"id":"s","compile":` + strings.TrimSpace(string(bodies[i])) + `}`))
	}
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Add([]byte(nested(maxDepth)))
	f.Add([]byte(nested(maxDepth + 1)))
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := sameAsEncodingJSON(body); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodeAllocatesOnlyWhatItReturns: decoding a corpus answer makes no garbage
// beyond the strings and slices it returns: one allocation per string that
// is not empty and one per slice.
func TestDecodeAllocatesOnlyWhatItReturns(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	body := corpusResponseBodies(t)[1]
	var resp CompileResponse
	if err := decodeCompileResponse(body, &resp); err != nil {
		t.Fatal(err)
	}
	want := 1 // Switches
	for _, s := range resp.Switches {
		for _, text := range []string{s.Switch, s.Dialect, s.Code} {
			if text != "" {
				want++
			}
		}
	}
	if resp.Fingerprint != "" {
		want++
	}
	if len(resp.Phases) > 0 {
		want++
		for _, p := range resp.Phases {
			if p.Phase != "" {
				want++
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		var v CompileResponse
		if err := decodeCompileResponse(body, &v); err != nil {
			t.Fatal(err)
		}
	})
	if int(allocs) > want {
		t.Errorf("decoding makes %.0f allocations, want at most %d (one per string and slice)", allocs, want)
	}
}

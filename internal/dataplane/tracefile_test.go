package dataplane

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestTraceRoundTrip: Write → Parse reproduces records exactly, and the
// written form is stable (sorted fields) so checked-in traces diff cleanly.
func TestTraceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	recs := streamTrace(rng, 9, 40)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("round trip: %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].TS != recs[i].TS {
			t.Fatalf("record %d: ts %d != %d", i, got[i].TS, recs[i].TS)
		}
		if len(got[i].Fields) != len(recs[i].Fields) {
			t.Fatalf("record %d: field count mismatch", i)
		}
		for k, v := range recs[i].Fields {
			if got[i].Fields[k] != v {
				t.Fatalf("record %d: %s = %d, want %d", i, k, got[i].Fields[k], v)
			}
		}
		if strings.Join(got[i].Valid, ",") != strings.Join(recs[i].Valid, ",") {
			t.Fatalf("record %d: valid mismatch", i)
		}
	}
	var buf2 bytes.Buffer
	if err := WriteTrace(&buf2, got); err != nil {
		t.Fatal(err)
	}
	if buf2.String() == "" || buf2.String() != rewrite(t, recs) {
		t.Fatal("second write is not byte-stable")
	}
}

func rewrite(t *testing.T, recs []TraceRecord) string {
	t.Helper()
	var b bytes.Buffer
	if err := WriteTrace(&b, recs); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestTraceTimestampField: capture time lands in the designated field,
// hex values and comments parse, malformed input fails loudly.
func TestTraceTimestampField(t *testing.T) {
	in := `# capture of two flows
packet ts=0x64 valid=flow flow.id=3 flow.a=7

packet ts=210 valid=flow flow.id=4
`
	recs, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].TS != 100 || recs[1].TS != 210 {
		t.Fatalf("parsed %+v", recs)
	}
	p := recs[0].Packet("flow.ts")
	if p.Fields["flow.ts"] != 100 || p.Fields["flow.id"] != 3 || !p.Valid["flow"] {
		t.Fatalf("materialized %+v", p)
	}
	for _, bad := range []string{
		"pkt ts=1\n",              // unknown directive
		"packet notafield=1\n",    // field without hdr. prefix
		"packet flow.id\n",        // missing =
		"packet ts=zz\n",          // bad number
		"packet flow.id=0x10g0\n", // bad hex
	} {
		if _, err := ParseTrace(strings.NewReader(bad)); err == nil {
			t.Fatalf("parse accepted %q", bad)
		}
	}
}

// TestTraceFileReplay replays the checked-in sample capture through a
// stream and cross-checks it against one-shot execution — the end-to-end
// stream-replay path examples/streaming takes.
func TestTraceFileReplay(t *testing.T) {
	recs, err := LoadTraceFile(filepath.Join("..", "..", "testdata", "traces", "flows_sample.lyt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 16 {
		t.Fatalf("sample trace has %d records, want >= 16", len(recs))
	}
	plan, _ := compile(t, streamSrc, streamScope)
	path := flowPaths(t, plan, "track")[0]

	refDep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	refEng, err := refDep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	ref := refEng.FlattenTrace(recs, "")
	refEng.runBatch(path, nil, ref, 1)

	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	key, err := eng.FlowKeyField("flow.id")
	if err != nil {
		t.Fatal(err)
	}
	s, err := dep.OpenStream(path, StreamOptions{Lanes: 3, BatchSize: 4, FlowKey: key})
	if err != nil {
		t.Fatal(err)
	}
	got := eng.FlattenTrace(recs, "")
	if err := s.Feed(got...); err != nil {
		t.Fatal(err)
	}
	s.Close()
	for i := range got {
		if diff := DiffPackets(ref[i].Packet(), got[i].Packet(), nil); len(diff) > 0 {
			t.Fatalf("packet %d diverges: %v", i, diff)
		}
	}
}

// longLineTrace is a trace whose second line holds a value of 2 MiB, past the
// reader's 1 MiB line limit.
func longLineTrace() string {
	return "packet ts=1 flow.id=1\npacket ts=2 flow.a=" + strings.Repeat("7", 2<<20) + "\n"
}

// TestTraceLongLineNamesItsLine: a record over the line limit fails with the
// number of its line, as every other trace error does.
func TestTraceLongLineNamesItsLine(t *testing.T) {
	_, err := ParseTrace(strings.NewReader(longLineTrace()))
	if err == nil || !strings.HasPrefix(err.Error(), "trace line 2: ") || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("over-long record: %v, want a trace line 2 error wrapping bufio.ErrTooLong", err)
	}
}

// traceErr is the shape of every ParseTrace error: it names its line.
var traceErr = regexp.MustCompile(`^trace line [1-9][0-9]*: `)

// FuzzParseTrace feeds arbitrary text to the .lyt reader. No input may panic,
// every error must name a line, and every accepted trace must parse back to
// the same records after WriteTrace.
func FuzzParseTrace(f *testing.F) {
	sample, err := os.ReadFile(filepath.Join("..", "..", "testdata", "traces", "flows_sample.lyt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(sample))
	f.Add(longLineTrace())
	for _, s := range []string{
		"# lyra trace v1\npacket ts=0x64 valid=flow,tcp flow.id=3 flow.a=0b101\n\npacket ts=1_000\r\n",
		"packet valid=a,,b valid= ts=1 ts=2 x.y=1 x.y=2\n",
		"pkt ts=1\n",
		"packet notafield=1\n",
		"packet flow.id\n",
		"packet ts=18446744073709551616\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ParseTrace(strings.NewReader(text))
		if err != nil {
			if !traceErr.MatchString(err.Error()) {
				t.Fatalf("error %q names no line", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, recs); err != nil {
			t.Fatal(err)
		}
		again, err := ParseTrace(&buf)
		if err != nil {
			t.Fatalf("the written trace does not parse: %v", err)
		}
		if !reflect.DeepEqual(again, recs) {
			t.Fatalf("written and parsed back as %+v, want %+v", again, recs)
		}
	})
}

package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lyra/internal/ir"
	"lyra/internal/lang/parser"
)

// engineFor deploys src with every algorithm PER-SW on ToR3 and returns the
// engine, whose Layout and parse graph are all the wire tests need.
func engineFor(t testing.TB, src string) *Engine {
	t.Helper()
	prog, err := parser.Parse("test.lyra", []byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	var scope strings.Builder
	for _, a := range prog.Algorithms {
		fmt.Fprintf(&scope, "%s: [ ToR3 | PER-SW | - ]\n", a.Name)
	}
	plan, _ := compile(t, src, scope.String())
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := dep.Engine()
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testProgram reads one of testdata/programs.
func testProgram(t testing.TB, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("../../testdata/programs", name+".lyra"))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// checkWireFlatAgreement is the byte-level oracle: the flat codec and the
// map-based wire path must agree on arbitrary input bytes — same parse
// error (if any), same parsed packet, same unconsumed payload, and the
// same re-serialized bytes.
func checkWireFlatAgreement(t *testing.T, eng *Engine, data []byte) {
	t.Helper()
	irp := eng.dep.Plan.Input.IR
	mapPkt, mapPayload, mapErr := ParseBytes(irp, data)
	flatPkt, flatPayload, flatErr := eng.ParseBytesFlat(data)
	if (mapErr == nil) != (flatErr == nil) {
		t.Fatalf("parse error divergence on %x:\n  map:  %v\n  flat: %v", data, mapErr, flatErr)
	}
	if mapErr != nil {
		if mapErr.Error() != flatErr.Error() {
			t.Fatalf("parse error text divergence on %x:\n  map:  %v\n  flat: %v", data, mapErr, flatErr)
		}
		return
	}
	if !bytes.Equal(mapPayload, flatPayload) {
		t.Fatalf("payload divergence on %x: map %x, flat %x", data, mapPayload, flatPayload)
	}
	got := flatPkt.Packet()
	if got.Summary() != mapPkt.Summary() {
		t.Fatalf("parsed packet divergence on %x:\n  map:  %s\n  flat: %s", data, mapPkt.Summary(), got.Summary())
	}
	if diffs := DiffPackets(mapPkt, got, nil); len(diffs) > 0 {
		t.Fatalf("parsed field divergence on %x: %v", data, diffs)
	}
	mapOut, mapSerErr := Serialize(irp, mapPkt, mapPayload)
	flatOut, flatSerErr := eng.SerializeFlat(flatPkt, flatPayload)
	if (mapSerErr == nil) != (flatSerErr == nil) {
		t.Fatalf("serialize error divergence on %x:\n  map:  %v\n  flat: %v", data, mapSerErr, flatSerErr)
	}
	if mapSerErr != nil {
		return
	}
	if !bytes.Equal(mapOut, flatOut) {
		t.Fatalf("serialized byte divergence on %x:\n  map:  %x\n  flat: %x", data, mapOut, flatOut)
	}
}

// FuzzWireFlatRoundTrip feeds arbitrary bytes to both wire paths and
// requires byte-level agreement end to end. Run with:
//
//	go test ./internal/dataplane -fuzz FuzzWireFlatRoundTrip
func FuzzWireFlatRoundTrip(f *testing.F) {
	eng := engineFor(f, wireSrc)
	irp := eng.dep.Plan.Input.IR
	// Seed with structurally interesting inputs: a full ethernet+ipv4
	// packet, an ethernet+probe+ipv4 chain, truncations, and junk.
	pkt := NewPacket()
	pkt.Valid["ethernet"] = true
	pkt.Fields["ethernet.dst_mac"] = 0x112233445566
	pkt.Fields["ethernet.src_mac"] = 0xAABBCCDDEEFF
	pkt.Fields["ethernet.ether_type"] = 0x0800
	pkt.Valid["ipv4"] = true
	pkt.Fields["ipv4.ttl"] = 64
	pkt.Fields["ipv4.protocol"] = 6
	pkt.Fields["ipv4.src_ip"] = 0x0A000001
	pkt.Fields["ipv4.dst_ip"] = 0x0A000002
	full, err := Serialize(irp, pkt, []byte{0xde, 0xad})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(full)
	pkt.Fields["ethernet.ether_type"] = 0x0801
	pkt.Valid["probe"] = true
	pkt.Fields["probe.msg_type"] = 1
	pkt.Fields["probe.hop_count"] = 3
	chained, err := Serialize(irp, pkt, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(chained)
	f.Add(full[:7])     // truncated mid-ethernet
	f.Add([]byte{})     // empty wire
	f.Add([]byte{0xff}) // one junk byte
	f.Fuzz(func(t *testing.T, data []byte) {
		checkWireFlatAgreement(t, eng, data)
	})
}

// TestWireFlatSweep is the deterministic arm of the fuzz campaign: 200
// random wire packets (valid serializations, truncations, and raw noise)
// checked for byte-level agreement between the two paths.
func TestWireFlatSweep(t *testing.T) {
	eng := engineFor(t, wireSrc)
	irp := eng.dep.Plan.Input.IR
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		var data []byte
		switch i % 4 {
		case 0, 1: // valid serialization of a random packet
			pkt := NewPacket()
			pkt.Valid["ethernet"] = true
			pkt.Fields["ethernet.dst_mac"] = uint64(rng.Int63()) & (1<<48 - 1)
			pkt.Fields["ethernet.src_mac"] = uint64(rng.Int63()) & (1<<48 - 1)
			switch rng.Intn(3) {
			case 0:
				pkt.Fields["ethernet.ether_type"] = 0x0800
				pkt.Valid["ipv4"] = true
				pkt.Fields["ipv4.ttl"] = uint64(rng.Intn(256))
				pkt.Fields["ipv4.protocol"] = 6
				pkt.Fields["ipv4.src_ip"] = uint64(rng.Uint32())
				pkt.Fields["ipv4.dst_ip"] = uint64(rng.Uint32())
			case 1:
				pkt.Fields["ethernet.ether_type"] = 0x0801
				pkt.Valid["probe"] = true
				pkt.Fields["probe.msg_type"] = uint64(rng.Intn(3))
				pkt.Fields["probe.hop_count"] = uint64(rng.Intn(256))
			default:
				pkt.Fields["ethernet.ether_type"] = uint64(rng.Intn(1 << 16))
			}
			payload := make([]byte, rng.Intn(16))
			rng.Read(payload)
			var err error
			data, err = Serialize(irp, pkt, payload)
			if err != nil {
				t.Fatal(err)
			}
		case 2: // truncated valid packet
			base := make([]byte, 14+rng.Intn(12))
			rng.Read(base)
			data = base[:rng.Intn(len(base)+1)]
		default: // raw noise
			data = make([]byte, rng.Intn(40))
			rng.Read(data)
		}
		checkWireFlatAgreement(t, eng, data)
	}
}

// TestWireFlatGraphless covers programs without parser_nodes, where both
// paths extract declared headers in order while bytes remain.
func TestWireFlatGraphless(t *testing.T) {
	src := `
header_type a_t { bit[16] x; bit[16] y; }
header a_t a;
header_type b_t { bit[8] z; }
header b_t b;
pipeline[P]{noop};
algorithm noop { q = a.x; }
`
	eng := engineFor(t, src)
	rng := rand.New(rand.NewSource(10))
	for i := 0; i < 50; i++ {
		data := make([]byte, rng.Intn(10))
		rng.Read(data)
		checkWireFlatAgreement(t, eng, data)
	}
}

// TestWireFlatDirectSlots asserts the parse really is bytes-native: the
// extracted fields land in the layout's slots (not the overflow maps).
func TestWireFlatDirectSlots(t *testing.T) {
	eng := engineFor(t, wireSrc)
	irp := eng.dep.Plan.Input.IR
	pkt := NewPacket()
	pkt.Valid["ethernet"] = true
	pkt.Fields["ethernet.dst_mac"] = 42
	pkt.Fields["ethernet.src_mac"] = 43
	pkt.Fields["ethernet.ether_type"] = 0x0800
	pkt.Valid["ipv4"] = true
	pkt.Fields["ipv4.ttl"] = 64
	pkt.Fields["ipv4.protocol"] = 17
	pkt.Fields["ipv4.src_ip"] = 7
	pkt.Fields["ipv4.dst_ip"] = 9
	data, err := Serialize(irp, pkt, nil)
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := eng.ParseBytesFlat(data)
	if err != nil {
		t.Fatal(err)
	}
	if f.ov != nil {
		t.Fatalf("declared headers overflowed the layout: %+v", *f.ov)
	}
	if s, ok := eng.layout.fieldSlot["ipv4.src_ip"]; !ok || f.w[s] != 7 || !f.has(fieldPresent, s) {
		t.Fatalf("ipv4.src_ip not deposited in its slot")
	}
	if s, ok := eng.layout.validSlot["ipv4"]; !ok || !f.has(headerValid, s) {
		t.Fatalf("ipv4 validity not deposited in its slot")
	}
}

// randomWirePacket builds a packet the program's parser accepts: it walks
// the parse graph down a random select arm per state (setting the key field
// to that arm's value), or takes a prefix of a graph-less program's headers,
// and fills every other field of the headers on the way with random bits.
// Now and then a header the walk missed is valid too, as if added
// mid-pipeline.
func randomWirePacket(rng *rand.Rand, irp *ir.Program) *Packet {
	pkt := NewPacket()
	fill := func(h string) {
		pkt.Valid[h] = true
		layout, _, _ := headerLayout(irp, h)
		for _, f := range layout {
			pkt.Fields[f.name] = mask(rng.Uint64(), f.bits)
		}
	}
	src, order := irp.Source, wireOrder(irp)
	if len(src.Parsers) == 0 {
		for _, h := range order[:rng.Intn(len(order)+1)] {
			fill(h)
		}
		return pkt
	}
	node := parserNode(src, startState(src))
	for steps := 0; node != nil && steps < 16; steps++ {
		for _, h := range node.Extracts {
			fill(h)
		}
		if node.Select == nil {
			break
		}
		next := node.Select.Default
		if n := len(node.Select.Cases); rng.Intn(n+1) > 0 {
			arm := node.Select.Cases[rng.Intn(n)]
			if key, err := selectKey(node.Select.Key); err == nil {
				pkt.Fields[key], next = arm.Value, arm.Next
			}
		}
		node = parserNode(src, next)
	}
	if h := order[rng.Intn(len(order))]; rng.Intn(4) == 0 && !pkt.Valid[h] {
		fill(h)
	}
	return pkt
}

// sweepWireAgreement drives one engine's two wire paths with valid frames
// (also serialized from the packet on both paths, which is the only way a
// header outside the parse graph reaches a serializer), their truncations,
// and noise.
func sweepWireAgreement(t *testing.T, eng *Engine, rng *rand.Rand, rounds int) {
	t.Helper()
	irp := eng.dep.Plan.Input.IR
	for i := 0; i < rounds; i++ {
		pkt := randomWirePacket(rng, irp)
		payload := make([]byte, rng.Intn(6))
		rng.Read(payload)
		frame, err := Serialize(irp, pkt, payload)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := eng.SerializeFlat(eng.Flatten(pkt), payload)
		if err != nil || !bytes.Equal(frame, flat) {
			t.Fatalf("serializing %s:\n  map:  %x\n  flat: %x (%v)", pkt.Summary(), frame, flat, err)
		}
		checkWireFlatAgreement(t, eng, frame)
		checkWireFlatAgreement(t, eng, frame[:rng.Intn(len(frame)+1)])
		noise := make([]byte, rng.Intn(len(frame)+9))
		rng.Read(noise)
		checkWireFlatAgreement(t, eng, noise)
	}
}

// awkwardSrc has one header no field of which ends on a byte boundary until
// the last, fields at, just under and over the 64-bit word, and a total that
// is not a multiple of 8.
const awkwardSrc = `
header_type odd_t { bit[1] a; bit[3] b; bit[9] c; bit[13] d; bit[63] e; bit[64] f; bit[65] g; bit[128] h; }
header odd_t odd;
header_type tail_t { bit[5] x; bit[16] y; }
header tail_t tail;
pipeline[P]{noop};
algorithm noop { q = odd.c; }
`

// cyclicSrc is a parse graph with a cycle the checker accepts (every trip
// extracts): a stack of ethernet headers ended by ether_type 0x0800.
const cyclicSrc = `
header_type ethernet_t { bit[48] dst_mac; bit[48] src_mac; bit[16] ether_type; }
header ethernet_t ethernet;
parser_node start { extract(ethernet); select(ethernet.ether_type) { 0x0800: accept; default: start; } }
pipeline[P]{noop};
algorithm noop { x = ethernet.ether_type; }
`

// TestWireFlatCorpus widens the byte-level oracle from wireSrc (whose fields
// are all whole bytes) to every program in testdata/programs — the scenario
// programs among them; TestWireFlatScenarios replays their own traffic — a
// graph-less program, the awkward header, and the cyclic graph.
func TestWireFlatCorpus(t *testing.T) {
	sources := map[string]string{"graphless": lbSrc, "awkward": awkwardSrc, "cyclic": cyclicSrc}
	files, err := filepath.Glob("../../testdata/programs/*.lyra")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, file := range files {
		name := strings.TrimSuffix(filepath.Base(file), ".lyra")
		sources[name] = testProgram(t, name)
	}
	for name, src := range sources {
		t.Run(name, func(t *testing.T) {
			sweepWireAgreement(t, engineFor(t, src), rand.New(rand.NewSource(16)), 60)
		})
	}
}

// TestWireCycleTerminates is the regression for the hang: a packet whose
// select value keeps the walk on a cycle made Serialize and SerializeFlat
// spin forever. All four entry points must return, the serializers with the
// header emitted once, the parsers with the stack consumed or a truncation.
func TestWireCycleTerminates(t *testing.T) {
	eng := engineFor(t, cyclicSrc)
	irp := eng.dep.Plan.Input.IR
	pkt := NewPacket()
	pkt.Valid["ethernet"] = true
	pkt.Fields["ethernet.dst_mac"] = 0x112233445566
	pkt.Fields["ethernet.ether_type"] = 0x1234
	done := make(chan struct{})
	go func() {
		defer close(done)
		once, err := Serialize(irp, pkt, nil)
		if err != nil || len(once) != 14 {
			t.Errorf("Serialize on the cycle: %x, %v; want the 14-byte header once", once, err)
		}
		flat, err := eng.SerializeFlat(eng.Flatten(pkt), nil)
		if err != nil || !bytes.Equal(flat, once) {
			t.Errorf("SerializeFlat on the cycle: %x, %v; want %x", flat, err, once)
		}
		pkt.Fields["ethernet.ether_type"] = 0x0800
		last, _ := Serialize(irp, pkt, []byte{0xaa})
		stack := append(append(append([]byte{}, once...), once...), last...)
		got, payload, err := ParseBytes(irp, stack)
		if err != nil || got.Fields["ethernet.ether_type"] != 0x0800 || !bytes.Equal(payload, []byte{0xaa}) {
			t.Errorf("ParseBytes of a 3-deep stack: %v, payload %x, %v", got, payload, err)
		}
		checkWireFlatAgreement(t, eng, stack)
		// Never leaving the cycle ends in truncation, on both paths alike.
		if _, _, err := ParseBytes(irp, stack[:28]); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("ParseBytes stuck on the cycle: err %v, want truncation", err)
		}
		checkWireFlatAgreement(t, eng, stack[:28])
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("wire codec did not return on a cyclic parse graph")
	}
}

// TestWireFlatAllocContract pins the allocation budget of the bytes-native
// path: a parse makes the packet (its struct and its slab), a serialize
// makes the output and nothing else, sized exactly.
func TestWireFlatAllocContract(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under the race detector")
	}
	for name, src := range map[string]string{"lb": lbSrc, "switch": testProgram(t, "switch"), "awkward": awkwardSrc} {
		eng := engineFor(t, src)
		irp := eng.dep.Plan.Input.IR
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 20; i++ {
			frame, err := Serialize(irp, randomWirePacket(rng, irp), nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(frame) == 0 {
				continue // an empty output is no allocation at all
			}
			f, _, err := eng.ParseBytesFlat(frame)
			if err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(50, func() { eng.ParseBytesFlat(frame) }); n > 2 {
				t.Errorf("%s: ParseBytesFlat allocates %v times per frame, want <= 2", name, n)
			}
			if n := testing.AllocsPerRun(50, func() { eng.SerializeFlat(f, nil) }); n != 1 {
				t.Errorf("%s: SerializeFlat allocates %v times per frame, want 1", name, n)
			}
			if out, _ := eng.SerializeFlat(f, nil); cap(out) != len(out) {
				t.Errorf("%s: SerializeFlat output len %d cap %d: outputs are retained, so capacity must equal length", name, len(out), cap(out))
			}
		}
	}
}

var wireCodecSink int

// BenchmarkWireCodec times the bytes-native codec alone, per frame, on a
// graph-less program (the load balancer) and a four-state parse graph
// (switch.lyra, whose vlan and ipv4 headers are not byte-aligned).
func BenchmarkWireCodec(b *testing.B) {
	for _, prog := range []struct{ name, src string }{{"lb", lbSrc}, {"switch", testProgram(b, "switch")}} {
		eng := engineFor(b, prog.src)
		var err error
		irp := eng.dep.Plan.Input.IR
		rng := rand.New(rand.NewSource(18))
		frames := make([][]byte, 64)
		pkts := make([]*FlatPacket, len(frames))
		for i := range frames {
			for len(frames[i]) == 0 { // an empty frame would time nothing
				if frames[i], err = Serialize(irp, randomWirePacket(rng, irp), nil); err != nil {
					b.Fatal(err)
				}
			}
			if pkts[i], _, err = eng.ParseBytesFlat(frames[i]); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(prog.name+"/parse", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f, _, _ := eng.ParseBytesFlat(frames[i%len(frames)])
				wireCodecSink += len(f.w)
			}
		})
		b.Run(prog.name+"/serialize", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, _ := eng.SerializeFlat(pkts[i%len(pkts)], nil)
				wireCodecSink += len(out)
			}
		})
	}
}

package dataplane

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// bitSerialWrite and bitSerialRead are the bit-at-a-time loops the
// word-wise primitives replaced, kept as their oracle.
func bitSerialWrite(buf []byte, nbit int, v uint64, bits int) {
	for i := bits - 1; i >= 0; i, nbit = i-1, nbit+1 {
		buf[nbit/8] |= byte(v>>uint(i)&1) << uint(7-nbit%8)
	}
}

func bitSerialRead(buf []byte, nbit, bits int) (v uint64) {
	for i := 0; i < bits; i, nbit = i+1, nbit+1 {
		v = v<<1 | uint64(buf[nbit/8]>>uint(7-nbit%8)&1)
	}
	return v
}

// TestBitPrimitivesMatchBitSerial holds read and write to the bit-serial
// reference over random widths 1-128 from random starting bit offsets, and
// reads every buffer through to its truncation error.
func TestBitPrimitivesMatchBitSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 2000; trial++ {
		start := rng.Intn(64)
		widths := make([]int, 1+rng.Intn(12))
		total := start
		for i := range widths {
			widths[i] = 1 + rng.Intn(128)
			if rng.Intn(3) == 0 {
				widths[i] = 1 + rng.Intn(16) // plenty of sub-byte and straddling fields
			}
			total += widths[i]
		}

		// write: both start behind `start` bits that are already set, which
		// the ORing writers must leave alone.
		got, want := make([]byte, (total+7)/8), make([]byte, (total+7)/8)
		bitSerialWrite(got, 0, ^uint64(0), start)
		bitSerialWrite(want, 0, ^uint64(0), start)
		w := bitWriter{buf: got, nbit: start}
		at := start
		for _, bits := range widths {
			v := rng.Uint64()
			w.write(v, bits)
			bitSerialWrite(want, at, v, bits)
			at += bits
		}
		if w.nbit != total || !bytes.Equal(got, want) {
			t.Fatalf("write widths %v from bit %d: nbit %d (want %d)\n  got  %x\n  want %x", widths, start, w.nbit, total, got, want)
		}

		// read: random bytes, cut short so the last reads hit the tail path
		// and then the truncation error.
		buf := make([]byte, rng.Intn(len(got)+1))
		rng.Read(buf)
		r := bitReader{buf: buf, nbit: min(start, len(buf)*8)}
		for _, bits := range widths {
			at, have := r.nbit, r.remaining()
			v, err := r.read(bits)
			if bits > have {
				wantErr := fmt.Sprintf("dataplane: truncated packet: need %d bits, have %d", bits, have)
				if err == nil || err.Error() != wantErr || r.nbit != at {
					t.Fatalf("read %d of %d bits: err %v, nbit %d -> %d; want %q", bits, have, err, at, r.nbit, wantErr)
				}
				break
			}
			if ref := bitSerialRead(buf, at, bits); err != nil || v != ref || r.nbit != at+bits {
				t.Fatalf("read %d bits at %d of %x: got %#x, %v (nbit %d); want %#x", bits, at, buf, v, err, r.nbit, ref)
			}
		}
	}
}

const wireSrc = `
header_type ethernet_t { bit[48] dst_mac; bit[48] src_mac; bit[16] ether_type; }
header ethernet_t ethernet;
header_type ipv4_t { bit[8] ttl; bit[8] protocol; bit[32] src_ip; bit[32] dst_ip; }
header ipv4_t ipv4;
header_type probe_t { bit[8] hop_count; bit[8] msg_type; }
header probe_t probe;
parser_node start {
  extract(ethernet);
  select(ethernet.ether_type) {
    0x0800: parse_ipv4;
    0x0801: parse_probe;
    default: accept;
  }
}
parser_node parse_probe {
  extract(probe);
  select(probe.msg_type) {
    1: parse_ipv4;
    default: accept;
  }
}
parser_node parse_ipv4 { extract(ipv4); }
pipeline[P]{noop};
algorithm noop { x = ethernet.ether_type; }
`

func TestWireRoundTripWithParseGraph(t *testing.T) {
	_, irp := compile(t, wireSrc, "noop: [ ToR3 | PER-SW | - ]")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 100; i++ {
		pkt := NewPacket()
		pkt.Valid["ethernet"] = true
		pkt.Fields["ethernet.dst_mac"] = uint64(rng.Int63()) & (1<<48 - 1)
		pkt.Fields["ethernet.src_mac"] = uint64(rng.Int63()) & (1<<48 - 1)
		withProbe := rng.Intn(2) == 0
		if withProbe {
			pkt.Fields["ethernet.ether_type"] = 0x0801
			pkt.Valid["probe"] = true
			pkt.Fields["probe.msg_type"] = 1
			pkt.Fields["probe.hop_count"] = uint64(rng.Intn(256))
		} else {
			pkt.Fields["ethernet.ether_type"] = 0x0800
		}
		pkt.Valid["ipv4"] = true
		pkt.Fields["ipv4.ttl"] = 64
		pkt.Fields["ipv4.protocol"] = 6
		pkt.Fields["ipv4.src_ip"] = uint64(rng.Uint32())
		pkt.Fields["ipv4.dst_ip"] = uint64(rng.Uint32())

		payload := make([]byte, rng.Intn(32))
		rng.Read(payload)

		data, err := Serialize(irp, pkt, payload)
		if err != nil {
			t.Fatal(err)
		}
		got, gotPayload, err := ParseBytes(irp, data)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotPayload, payload) {
			t.Fatalf("payload mismatch: %x vs %x", gotPayload, payload)
		}
		for k, v := range pkt.Fields {
			if got.Fields[k] != v {
				t.Fatalf("field %s = %d, want %d", k, got.Fields[k], v)
			}
		}
		for h, valid := range pkt.Valid {
			if got.Valid[h] != valid {
				t.Fatalf("validity %s = %v, want %v", h, got.Valid[h], valid)
			}
		}
	}
}

func TestWireUnknownEtherTypeStopsParsing(t *testing.T) {
	_, irp := compile(t, wireSrc, "noop: [ ToR3 | PER-SW | - ]")
	pkt := NewPacket()
	pkt.Valid["ethernet"] = true
	pkt.Fields["ethernet.ether_type"] = 0x86DD // not in the parse graph
	data, err := Serialize(irp, pkt, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, payload, err := ParseBytes(irp, data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Valid["ipv4"] || got.Valid["probe"] {
		t.Error("unexpected headers parsed")
	}
	if !bytes.Equal(payload, []byte{1, 2, 3}) {
		t.Errorf("payload = %x", payload)
	}
}

// TestWireINTGrowsPacket: running ingress INT adds the probe header, which
// must show up as extra on-the-wire bytes — the Figure 1(b) observable.
func TestWireINTGrowsPacket(t *testing.T) {
	src := `
header_type ethernet_t { bit[48] dst_mac; bit[48] src_mac; bit[16] ether_type; }
header ethernet_t ethernet;
header_type probe_t { bit[8] hop_count; bit[8] msg_type; }
header probe_t probe;
parser_node start {
  extract(ethernet);
  select(ethernet.ether_type) {
    0x0801: parse_probe;
    default: accept;
  }
}
parser_node parse_probe { extract(probe); }
pipeline[P]{int_in};
algorithm int_in {
  extern list<bit[48] mac>[16] watch;
  if (ethernet.src_mac in watch) {
    add_header(probe);
    probe.msg_type = 1;
    probe.hop_count = 1;
    ethernet.ether_type = 0x0801;
  }
}
`
	plan, irp := compile(t, src, "int_in: [ ToR3 | PER-SW | - ]")
	tables := NewTables()
	tables.Set("watch", 0xAABBCCDDEE, 1)
	dep, err := NewDeployment(plan, tables)
	if err != nil {
		t.Fatal(err)
	}
	in := NewPacket()
	in.Valid["ethernet"] = true
	in.Fields["ethernet.src_mac"] = 0xAABBCCDDEE
	in.Fields["ethernet.ether_type"] = 0x0800
	before, err := Serialize(irp, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dep.RunPath([]string{"ToR3"}, &Context{}, in)
	if err != nil {
		t.Fatal(err)
	}
	after, err := Serialize(irp, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+2 { // probe_t is 16 bits
		t.Fatalf("wire growth = %d -> %d bytes, want +2", len(before), len(after))
	}
	// And the grown packet re-parses with the probe present.
	reparsed, _, err := ParseBytes(irp, after)
	if err != nil {
		t.Fatal(err)
	}
	if !reparsed.Valid["probe"] || reparsed.Fields["probe.hop_count"] != 1 {
		t.Errorf("reparsed = %s", reparsed.Summary())
	}
}

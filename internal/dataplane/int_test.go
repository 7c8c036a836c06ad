package dataplane

import (
	"testing"
)

// TestINTEndToEnd reproduces Figure 1(b): a packet entering at ToR3
// traverses Agg3 and leaves at ToR4; the ingress switch inserts the probe
// header, every hop appends its metadata and bumps the hop count, and the
// egress switch mirrors the packet to the collector and strips the probe.
// Per-switch control-plane state assigns the roles: the source watch list
// exists only on ToR3, the transit filter only on Agg3, the sink filter
// only on ToR4.
func TestINTEndToEnd(t *testing.T) {
	src := `
header_type ipv4_t { bit[8] ttl; bit[32] src_ip; bit[32] dst_ip; }
header ipv4_t ipv4;
header_type probe_t { bit[8] hop_count; bit[8] msg_type; }
header probe_t probe;
header_type md_t { bit[32] switch_id; bit[32] latency; }
header md_t int_md;
pipeline[INT]{int_in -> int_transit -> int_out};

algorithm int_in {
  extern list<bit[32] ip>[64] watch_src;
  if (ipv4.src_ip in watch_src) {
    add_header(probe);
    probe.msg_type = 1;
    probe.hop_count = 1;
  }
}
algorithm int_transit {
  extern dict<bit[8] msg, bit[8] on>[4] transit_filter;
  if (probe.msg_type in transit_filter) {
    probe.hop_count = probe.hop_count + 1;
    add_header(int_md);
    int_md.switch_id = get_switch_id();
  }
}
algorithm int_out {
  extern dict<bit[8] msg, bit[8] on>[4] sink_filter;
  if (probe.msg_type in sink_filter) {
    probe.hop_count = probe.hop_count + 1;
    mirror();
    remove_header(probe);
  }
}
`
	scopeText := `
int_in:      [ ToR* | PER-SW | - ]
int_transit: [ Agg* | PER-SW | - ]
int_out:     [ ToR* | PER-SW | - ]
`
	plan, irp := compile(t, src, scopeText)
	_ = irp
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	// Role assignment via per-switch control-plane entries.
	dep.SetSwitchEntry("ToR3", "watch_src", 0x0A000001, 1)
	dep.SetSwitchEntry("Agg3", "transit_filter", 1, 1)
	dep.SetSwitchEntry("ToR4", "sink_filter", 1, 1)
	// The deployment replicated full (empty) copies everywhere else: clear
	// any copies installed by the default distribution.
	for _, sw := range []string{"ToR1", "ToR2", "ToR4"} {
		dep.ClearSwitchTable(sw, "watch_src")
	}
	for _, sw := range []string{"ToR1", "ToR2", "ToR3"} {
		dep.ClearSwitchTable(sw, "sink_filter")
	}

	ctx := &Context{SwitchID: 42}
	pkt := NewPacket()
	pkt.Valid["ipv4"] = true
	pkt.Fields["ipv4.src_ip"] = 0x0A000001
	pkt.Fields["ipv4.dst_ip"] = 0x0B000001

	out, err := dep.RunPath([]string{"ToR3", "Agg3", "ToR4"}, ctx, pkt)
	if err != nil {
		t.Fatal(err)
	}
	if out.Valid["probe"] {
		t.Error("egress switch should strip the probe header")
	}
	if !out.Valid["int_md"] {
		t.Error("transit metadata missing")
	}
	if out.Fields["int_md.switch_id"] != 42 {
		t.Errorf("switch_id = %d", out.Fields["int_md.switch_id"])
	}
	if !out.Mirrored {
		t.Error("egress switch must mirror to the collector")
	}
	// hop_count reached 3 before stripping (1 at ingress + transit + egress).
	if out.Fields["probe.hop_count"] != 3 {
		t.Errorf("hop_count = %d, want 3", out.Fields["probe.hop_count"])
	}

	// A packet from an unwatched source is untouched.
	quiet := NewPacket()
	quiet.Valid["ipv4"] = true
	quiet.Fields["ipv4.src_ip"] = 0x0C000099
	out, err = dep.RunPath([]string{"ToR3", "Agg3", "ToR4"}, ctx, quiet)
	if err != nil {
		t.Fatal(err)
	}
	if out.Valid["probe"] || out.Mirrored || out.Valid["int_md"] {
		t.Errorf("unwatched packet modified: %s", out.Summary())
	}
}

// TestINTPerSwitchContexts: each hop stamps its own switch id — the
// metadata observed at the egress reflects the device that wrote it last
// (with one metadata instance; real INT grows a stack, §8).
func TestINTPerSwitchContexts(t *testing.T) {
	src := `
header_type h_t { bit[32] x; }
header h_t h;
header_type md_t { bit[32] switch_id; }
header md_t md;
pipeline[P]{stamp};
algorithm stamp {
  add_header(md);
  md.switch_id = get_switch_id();
}
`
	plan, _ := compile(t, src, "stamp: [ ToR*,Agg* | PER-SW | - ]")
	dep, err := NewDeployment(plan, NewTables())
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]uint64{"ToR3": 33, "Agg3": 77, "ToR4": 44}
	out := NewPacket()
	out.Valid["h"] = true
	for _, sw := range []string{"ToR3", "Agg3", "ToR4"} {
		if out, err = dep.RunPath([]string{sw}, &Context{SwitchID: ids[sw]}, out); err != nil {
			t.Fatal(err)
		}
	}
	if out.Fields["md.switch_id"] != 44 {
		t.Errorf("switch_id = %d, want the egress ToR4's 44", out.Fields["md.switch_id"])
	}
}

// Streaming replay demo: compile a stateful NAT, deploy it on the
// simulated testbed, and drive a flow-ordered packet capture through a
// long-lived stream with per-flow lane affinity. Because every packet of a
// flow lands on the same lane, connection state established in one batch
// is still there when the flow's next packet arrives thousands of packets
// later — and a 4-lane stream produces byte-identical output to a
// sequential one-shot replay.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"lyra"
	"lyra/internal/dataplane"
)

const program = `
header_type ipv4_t { bit[32] srcAddr; bit[32] dstAddr; bit[8] protocol; }
header ipv4_t ipv4;
header_type tcp_t { bit[16] srcPort; bit[16] dstPort; }
header tcp_t tcp;
header_type nat_meta_t { bit[8] dir; bit[8] allowed; }
header nat_meta_t nat_meta;
pipeline[NAT]{nat};
algorithm nat {
  extern dict<bit[32] conn, bit[32] xlate>[256] conn_table;
  extern dict<bit[32] ip, bit[32] pub>[64] nat_pool;
  bit[32] conn;
  bit[8] hit;
  bit[32] orig;
  conn = crc32_hash(ipv4.srcAddr, ipv4.dstAddr, ipv4.protocol, tcp.srcPort, tcp.dstPort);
  hit = 0;
  if (conn in conn_table) {
    hit = 1;
    orig = conn_table[conn];
  }
  if (nat_meta.dir == 0) {
    if (ipv4.srcAddr in nat_pool) {
      ipv4.srcAddr = nat_pool[ipv4.srcAddr];
      if (hit == 0) {
        insert(conn_table, conn, ipv4.srcAddr);
      }
      nat_meta.allowed = 1;
    }
  } else {
    if (hit == 1) {
      ipv4.dstAddr = orig;
      nat_meta.allowed = 1;
    } else {
      nat_meta.allowed = 0;
    }
  }
}
`

const scopeSpec = `nat: [ ToR3,ToR4,Agg3,Agg4 | MULTI-SW | (Agg3,Agg4->ToR3,ToR4) ]`

// trace synthesizes a flow-ordered capture: outbound packets establish
// connections, inbound packets probe them — some for flows that were never
// established (dropped by the firewall half of the NAT).
func trace(n int) []dataplane.TraceRecord {
	rng := rand.New(rand.NewSource(42))
	recs := make([]dataplane.TraceRecord, n)
	for i := range recs {
		id := rng.Intn(24)
		dir := uint64(0)
		if rng.Intn(3) == 0 {
			dir = 1
		}
		recs[i] = dataplane.TraceRecord{
			TS:    uint64(1000 + i*13),
			Valid: []string{"ipv4", "tcp", "nat_meta"},
			Fields: map[string]uint64{
				"ipv4.srcAddr":  0x0A000000 + uint64(id%16),
				"ipv4.dstAddr":  0x0B000000 + uint64(id%7),
				"ipv4.protocol": 6,
				"tcp.srcPort":   uint64(1024 + id),
				"tcp.dstPort":   443,
				"nat_meta.dir":  dir,
			},
		}
	}
	return recs
}

func main() {
	res, err := lyra.New().Compile(context.Background(), program, scopeSpec, lyra.Testbed())
	if err != nil {
		log.Fatal(err)
	}
	tables := lyra.NewTables()
	for i := uint64(0); i < 16; i++ {
		tables.Set("nat_pool", 0x0A000000+i, 0xC0A80000+i)
	}

	deploy := func() (*dataplane.Deployment, *dataplane.Engine) {
		sim, err := res.Simulate(tables)
		if err != nil {
			log.Fatal(err)
		}
		dep := sim.Deployment()
		eng, err := dep.Engine()
		if err != nil {
			log.Fatal(err)
		}
		return dep, eng
	}
	path := []string{"ToR3", "Agg3", "ToR4"}
	recs := trace(10_000)
	ctx := &lyra.SimContext{}

	// Reference: sequential one-shot replay of the whole capture.
	refDep, refEng := deploy()
	oneShot, err := refDep.ExecutorFor(dataplane.TierCompiled)
	if err != nil {
		log.Fatal(err)
	}
	ref := refEng.FlattenTrace(recs, "")
	if err := oneShot.RunBatch(path, ctx, ref, 1); err != nil {
		log.Fatal(err)
	}

	// Streaming: a fresh deployment, fed continuously in 500-packet
	// chunks through a 4-lane stream keyed by the connection 5-tuple.
	dep, eng := deploy()
	key, err := eng.FlowKeyHash("crc32_hash", 32, 0,
		"ipv4.srcAddr", "ipv4.dstAddr", "ipv4.protocol", "tcp.srcPort", "tcp.dstPort")
	if err != nil {
		log.Fatal(err)
	}
	s, err := dep.OpenStream(path, dataplane.StreamOptions{
		Tier: dataplane.TierCompiled, Lanes: 4, BatchSize: 256, FlowKey: key, Ctx: ctx,
	})
	if err != nil {
		log.Fatal(err)
	}
	got := eng.FlattenTrace(recs, "")
	for off := 0; off < len(got); off += 500 {
		hi := off + 500
		if hi > len(got) {
			hi = len(got)
		}
		if err := s.Feed(got[off:hi]...); err != nil {
			log.Fatal(err)
		}
	}
	s.Close()

	mismatch := 0
	for i := range ref {
		if diff := dataplane.DiffPackets(ref[i].Packet(), got[i].Packet(), nil); diff != nil {
			mismatch++
		}
	}
	st := s.Stats()
	fmt.Printf("replayed %d packets through %d lanes (%d drain rounds)\n",
		st.Packets, st.Lanes, st.Drains)
	fmt.Printf("per-lane packets: %v\n", st.LanePackets)
	fmt.Printf("stream vs one-shot mismatches: %d\n", mismatch)
	if mismatch > 0 {
		log.Fatal("lane affinity broken: streaming diverged from the one-shot replay")
	}
	fmt.Println("4-lane stream is byte-identical to the sequential replay ✓")
}

package lyra_test

import (
	"context"
	"fmt"

	"lyra"
)

// ExampleCompile compiles a minimal program for one ToR switch and reports
// what was generated.
func ExampleCompiler_Compile() {
	res, err := lyra.New().Compile(context.Background(), `
header_type ipv4_t { bit[8] ttl; bit[32] dst_ip; }
header ipv4_t ipv4;
pipeline[R]{router};
algorithm router {
  extern dict<bit[32] dst, bit[9] port>[1024] routes;
  if (ipv4.ttl <= 1) {
    drop();
  } else {
    ipv4.ttl = ipv4.ttl - 1;
    if (ipv4.dst_ip in routes) {
      forward(routes[ipv4.dst_ip]);
    }
  }
}`, "router: [ ToR1 | PER-SW | - ]", lyra.Testbed())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	art := res.Artifact("ToR1")
	fmt.Printf("%s %s: %d tables, %d actions\n", art.Switch, art.Dialect, art.Tables, art.Actions)
	// Output: ToR1 P4_14: 2 tables, 5 actions
}

// ExampleResult_Simulate deploys a compiled program and pushes one packet.
func ExampleResult_Simulate() {
	res, err := lyra.New().Compile(context.Background(), `
header_type h_t { bit[32] key; bit[32] out; }
header h_t h;
pipeline[P]{lookup};
algorithm lookup {
  extern dict<bit[32] k, bit[32] v>[16] kv;
  if (h.key in kv) {
    h.out = kv[h.key];
  }
}`, "lookup: [ ToR1 | PER-SW | - ]", lyra.Testbed())
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	tables := lyra.NewTables()
	tables.Set("kv", 7, 99)
	sim, _ := res.Simulate(tables)
	pkt := lyra.NewPacket()
	pkt.Valid["h"] = true
	pkt.Fields["h.key"] = 7
	out, _ := sim.RunPath([]string{"ToR1"}, &lyra.SimContext{}, pkt)
	fmt.Println("out =", out.Fields["h.out"])
	// Output: out = 99
}

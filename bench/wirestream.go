package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand"
	"runtime"
	"strings"
	"time"

	"lyra"
	"lyra/internal/dataplane"
	"lyra/internal/eval"
)

// wire-stream: the compiler does nothing after set-up. The wire codec,
// flow-key extraction, the Feed hand-off, compiled execution and
// serialization are all of the time, and stateful lane state persists
// across ops, so state growth shows.

const (
	streamK = 8 // fat-tree pod the programs are deployed on
	// framesPerProgram is each program's share of an op. Frames are
	// header-only, the smallest the parse graph accepts, so per-packet cost
	// dominates per-byte cost.
	framesPerProgram = 8192
	smallFrames      = 1024
	burst            = 256 // frames parsed and fed per call, and the lane batch size
	interpSample     = 2048
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// wireProgram is one deployed program with its own long-lived stream.
type wireProgram struct {
	name     string
	res      *lyra.Result
	tables   func() *lyra.Tables // fresh control-plane contents
	sim      *lyra.Simulation
	dep      *dataplane.Deployment
	codec    *dataplane.WireCodec
	path     []string
	key      func(*dataplane.FlatPacket) uint64
	stream   *dataplane.Stream
	frames   [][]byte                // wire input, flow-ordered
	ref      [][]byte                // interpreter-tier output for the first chunk
	pkts     []*dataplane.FlatPacket // parsed packets, held until the stream flushes
	outs     [][]byte                // serialized output of the current op
	lastStat dataplane.StreamStats
}

type wireStream struct {
	cfg     config
	progs   []*wireProgram
	frames  int // per op, all programs
	keySink uint64
}

// lbTrace synthesizes flow-ordered load-balancer traffic: 256 client flows
// towards 64 virtual IPs, a few of which already have connection entries.
func lbTrace(n int, seed int64) []dataplane.TraceRecord {
	rng := rand.New(rand.NewSource(seed))
	type flow struct{ src, dst, sport uint64 }
	flows := make([]flow, 256)
	for i := range flows {
		flows[i] = flow{uint64(rng.Uint32()), uint64(rng.Intn(64)), uint64(1024 + rng.Intn(60000))}
	}
	recs := make([]dataplane.TraceRecord, n)
	for i := range recs {
		f := flows[rng.Intn(len(flows))]
		recs[i] = dataplane.TraceRecord{
			TS:    uint64(1000 + i*11),
			Valid: []string{"ipv4", "tcp"},
			Fields: map[string]uint64{
				"ipv4.srcAddr": f.src, "ipv4.dstAddr": f.dst, "ipv4.protocol": 6,
				"tcp.srcPort": f.sport, "tcp.dstPort": 80,
			},
		}
	}
	return recs
}

// streamScenarios is the load balancer plus the stateful scenario library.
func streamScenarios(seed int64) ([]eval.Scenario, map[string]string, error) {
	_, sources, err := loadPrograms()
	if err != nil {
		return nil, nil, err
	}
	sources["lb"] = strings.NewReplacer("5500000", "4096", "1000000", "1024").Replace(lbSource)
	lb := eval.Scenario{
		Name: "lb", Program: "lb", Algorithm: "loadbalancer", LaneSafe: true,
		FlowKey: func(eng *dataplane.Engine) (func(*dataplane.FlatPacket) uint64, error) {
			return eng.FlowKeyHash("crc32_hash", 32, 0,
				"ipv4.srcAddr", "ipv4.dstAddr", "ipv4.protocol", "tcp.srcPort", "tcp.dstPort")
		},
		Populate: func(t *dataplane.Tables) {
			rng := rand.New(rand.NewSource(seed))
			for vip := uint64(0); vip < 64; vip++ {
				t.Set("vip_table", vip, 0xC0A80000+vip)
			}
			for i := 0; i < 512; i++ {
				t.Set("conn_table", uint64(rng.Uint32()), 0x0A000000+uint64(i))
			}
		},
		Trace: lbTrace,
	}
	return append([]eval.Scenario{lb}, eval.Scenarios()...), sources, nil
}

func setupWireStream(cfg config, m map[string]float64) (instance, error) {
	scenarios, sources, err := streamScenarios(cfg.seed)
	if err != nil {
		return nil, err
	}
	n := framesPerProgram
	if cfg.small {
		n = smallFrames
	}
	w := &wireStream{cfg: cfg}
	net := lyra.FatTreePod(streamK, lyra.Tofino32Q)
	m["dataplane.deploy_ms"], m["dataplane.lower_ms"], m["dataplane.compile_ms"] = 0, 0, 0
	for _, sc := range scenarios {
		p := &wireProgram{name: sc.Name}
		if p.res, err = lyra.New().Compile(context.Background(), sources[sc.Program], sc.ScopeText(), net); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		if err := allVerified(p.res); err != nil {
			return nil, fmt.Errorf("%s: %w", sc.Name, err)
		}
		p.tables = func() *lyra.Tables {
			t := lyra.NewTables()
			if sc.Populate != nil {
				sc.Populate(t)
			}
			return t
		}
		for _, fp := range p.res.FlowPaths(sc.Algorithm) {
			if len(fp) > len(p.path) {
				p.path = fp
			}
		}
		if len(p.path) == 0 {
			return nil, fmt.Errorf("%s: no flow path", sc.Name)
		}

		start := time.Now()
		if p.sim, err = p.res.Simulate(p.tables()); err != nil {
			return nil, fmt.Errorf("%s: deploy: %w", sc.Name, err)
		}
		p.dep = p.sim.Deployment()
		m["dataplane.deploy_ms"] += ms(time.Since(start))
		start = time.Now()
		eng, err := p.dep.Engine()
		if err != nil {
			return nil, fmt.Errorf("%s: lowering: %w", sc.Name, err)
		}
		p.codec = eng.Codec()
		m["dataplane.lower_ms"] += ms(time.Since(start))
		start = time.Now()
		if _, err := p.dep.ExecutorFor(dataplane.TierCompiled); err != nil {
			return nil, fmt.Errorf("%s: compiled tier: %w", sc.Name, err)
		}
		m["dataplane.compile_ms"] += ms(time.Since(start))
		if p.key, err = sc.FlowKey(eng); err != nil {
			return nil, fmt.Errorf("%s: flow key: %w", sc.Name, err)
		}
		if p.stream, err = p.dep.OpenStream(p.path, dataplane.StreamOptions{
			Tier: dataplane.TierCompiled, Lanes: 1, BatchSize: burst, FlowKey: p.key,
		}); err != nil {
			return nil, fmt.Errorf("%s: open stream: %w", sc.Name, err)
		}

		p.frames = make([][]byte, n)
		for i, rec := range sc.Trace(n, cfg.seed) {
			if p.frames[i], err = p.sim.Serialize(rec.Packet(sc.TSField), nil); err != nil {
				return nil, fmt.Errorf("%s: serializing frame %d: %w", sc.Name, i, err)
			}
		}
		if err := p.reference(); err != nil {
			return nil, fmt.Errorf("%s: interpreter reference: %w", sc.Name, err)
		}
		p.pkts = make([]*dataplane.FlatPacket, n)
		p.outs = make([][]byte, n)
		w.progs = append(w.progs, p)
		w.frames += n
	}
	if cfg.corrupt {
		w.progs[0].ref[0] = append([]byte{0xFF}, w.progs[0].ref[0]...)
	}
	return w, nil
}

// reference runs the first chunk through the interpreter tier on a fresh
// deployment, with the map-based codec on both sides: nothing of the
// bytes-native codec, the stream or the compiled tier is involved.
func (p *wireProgram) reference() error {
	sim, err := p.res.Simulate(p.tables())
	if err != nil {
		return err
	}
	dep := sim.Deployment()
	interp, err := dep.ExecutorFor(dataplane.TierInterpreter)
	if err != nil {
		return err
	}
	eng, err := dep.Engine()
	if err != nil {
		return err
	}
	p.ref = make([][]byte, len(p.frames))
	for i, frame := range p.frames {
		pkt, payload, err := sim.ParseBytes(frame)
		if err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		f := eng.Flatten(pkt)
		if err := interp.RunPacket(p.path, &dataplane.Context{}, f); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		if p.ref[i], err = sim.Serialize(f.Packet(), payload); err != nil {
			return fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return nil
}

// chunk pushes every program's frames through parse -> Feed -> Flush ->
// serialize. Only that path is timed; digesting and comparing the output
// happens between programs, off the op's clock.
func (w *wireStream) chunk(i int, tr *tracer, m map[string]float64) (opOut, error) {
	out := opOut{units: w.frames}
	for _, p := range w.progs {
		start := time.Now()
		for off := 0; off < len(p.frames); off += burst {
			b := p.pkts[off:min(off+burst, len(p.frames))]
			id := tr.begin("wire.parse", i)
			for j := range b {
				f, _, err := p.codec.ParseBytesFlat(p.frames[off+j])
				if err != nil {
					return out, fmt.Errorf("%s: frame %d did not parse: %w", p.name, off+j, err)
				}
				b[j] = f
			}
			tr.end(id)
			if tr != nil {
				// Feed extracts the key itself; this second extraction is
				// the only way to see its cost from outside.
				id = tr.begin("stream.flowkey", i)
				for _, f := range b {
					w.keySink ^= p.key(f)
				}
				tr.end(id)
			}
			id = tr.begin("stream.feed", i)
			err := p.stream.Feed(b...)
			tr.end(id)
			if err != nil {
				return out, fmt.Errorf("%s: %w", p.name, err)
			}
		}
		id := tr.begin("stream.feed", i)
		p.stream.Flush()
		tr.end(id)
		id = tr.begin("wire.serialize", i)
		for j, f := range p.pkts {
			o, err := p.codec.SerializeFlat(f, nil)
			if err != nil {
				return out, fmt.Errorf("%s: frame %d did not serialize: %w", p.name, j, err)
			}
			p.outs[j] = o
		}
		tr.end(id)
		out.dur += time.Since(start)

		for j, o := range p.outs {
			out.digest = crc32.Update(out.digest, crcTable, o)
			if i == 0 && !bytes.Equal(o, p.ref[j]) {
				return out, fmt.Errorf("%s: frame %d came out as %x, the interpreter tier gives %x", p.name, j, o, p.ref[j])
			}
		}
		loc, tables := counts(p.res)
		out.loc += loc
		out.tables += tables
		if m != nil {
			st := p.stream.Stats()
			m["stream.drains"] += float64(st.Drains - p.lastStat.Drains)
			m["stream.lane_batches"] += float64(st.LaneBatches - p.lastStat.LaneBatches)
			p.lastStat = st
		}
	}
	return out, nil
}

func (w *wireStream) op(i int) (opOut, error) { return w.chunk(i, nil, nil) }

func (w *wireStream) traced(i int, tr *tracer, m map[string]float64) (opOut, error) {
	for _, p := range w.progs {
		p.lastStat = p.stream.Stats()
	}
	return w.chunk(i, tr, m)
}

// mallocsDuring counts heap allocations made by fn.
func mallocsDuring(fn func()) float64 {
	var b, a runtime.MemStats
	runtime.ReadMemStats(&b)
	fn()
	runtime.ReadMemStats(&a)
	return float64(a.Mallocs - b.Mallocs)
}

func (w *wireStream) probes(m map[string]float64) error {
	perPkt := 1e6 / float64(w.frames) // ms per op -> ns per frame
	m["wire.parse_ns_per_pkt"] = m["wire.parse_ms"] * perPkt
	m["wire.serialize_ns_per_pkt"] = m["wire.serialize_ms"] * perPkt
	m["stream.flowkey_ns_per_pkt"] = m["stream.flowkey_ms"] * perPkt
	m["stream.feed_ns_per_pkt"] = m["stream.feed_ms"] * perPkt

	var parseAllocs, feedAllocs, serAllocs float64
	var execNs, lanes2Ns, interpNs time.Duration
	var interpN int
	zero := &dataplane.Context{}
	for _, p := range w.progs {
		n := len(p.frames)
		var err error
		parseAllocs += mallocsDuring(func() {
			for j, frame := range p.frames {
				p.pkts[j], _, _ = p.codec.ParseBytesFlat(frame)
			}
		})
		tmpl := append([]*dataplane.FlatPacket(nil), p.pkts...)
		work := make([]*dataplane.FlatPacket, n)
		for j := range work {
			work[j], _, _ = p.codec.ParseBytesFlat(p.frames[j])
		}
		refresh := func() {
			for j := range work {
				work[j].CopyFrom(tmpl[j])
			}
		}

		// The same frames one-shot through the compiled executor, one
		// worker: what execution costs without the stream around it.
		compiled, err := p.dep.ExecutorFor(dataplane.TierCompiled)
		if err != nil {
			return err
		}
		best := time.Duration(0)
		for round := 0; round < 3; round++ {
			refresh()
			start := time.Now()
			for off := 0; off < n; off += burst {
				if err := compiled.RunBatch(p.path, zero, work[off:min(off+burst, n)], 1); err != nil {
					return err
				}
			}
			if d := time.Since(start); round == 0 || d < best {
				best = d
			}
		}
		execNs += best

		// Feed + Flush alone on the long-lived stream, for its allocations.
		refresh()
		feedAllocs += mallocsDuring(func() {
			for off := 0; off < n && err == nil; off += burst {
				err = p.stream.Feed(work[off:min(off+burst, n)]...)
			}
			p.stream.Flush()
		})
		if err != nil {
			return err
		}
		serAllocs += mallocsDuring(func() {
			for _, f := range work {
				p.outs[0], _ = p.codec.SerializeFlat(f, nil)
			}
		})

		// Two lanes plus the feeding goroutine on this host's CPUs.
		s2, err := p.dep.OpenStream(p.path, dataplane.StreamOptions{
			Tier: dataplane.TierCompiled, Lanes: 2, BatchSize: burst, FlowKey: p.key,
		})
		if err != nil {
			return err
		}
		best = 0
		for round := 0; round < 3; round++ {
			refresh()
			start := time.Now()
			for off := 0; off < n && err == nil; off += burst {
				err = s2.Feed(work[off:min(off+burst, n)]...)
			}
			s2.Flush()
			if d := time.Since(start); round == 0 || d < best {
				best = d
			}
		}
		s2.Close()
		if err != nil {
			return err
		}
		lanes2Ns += best

		// A small sample through the interpreter tier, on a deployment of
		// its own (that tier keeps its state in the deployment).
		sim, err := p.res.Simulate(p.tables())
		if err != nil {
			return err
		}
		interp, err := sim.Deployment().ExecutorFor(dataplane.TierInterpreter)
		if err != nil {
			return err
		}
		sample := min(interpSample/len(w.progs), n)
		refresh()
		start := time.Now()
		if err := interp.RunBatch(p.path, zero, work[:sample], 1); err != nil {
			return err
		}
		interpNs += time.Since(start)
		interpN += sample
	}
	frames := float64(w.frames)
	m["wire.parse_allocs_per_pkt"] = parseAllocs / frames
	m["wire.serialize_allocs_per_pkt"] = serAllocs / frames
	m["stream.allocs_per_pkt"] = feedAllocs / frames
	m["exec.compiled_ns_per_pkt"] = float64(execNs) / frames
	m["stream.lanes2_ns_per_pkt"] = float64(lanes2Ns) / frames
	m["exec.interp_ns_per_pkt"] = float64(interpNs) / float64(interpN)
	return nil
}

func (w *wireStream) close() {
	for _, p := range w.progs {
		p.stream.Close()
	}
}

package dataplane

// Long-lived streaming replay over the two execution tiers. A Stream is a
// stateful packet conveyor opened on one flow path: packets are fed
// continuously, each is pinned to a lane by its flow key, and per-flow
// register/extern state survives across batch boundaries because a flow's
// packets always execute on the same lane, in arrival order.
//
// Lane-affinity contract. Streaming with N lanes is byte-identical to a
// single-lane one-shot replay of the same trace if and only if every
// cross-packet state interaction in the program is confined to packets
// with equal flow key:
//
//   - extern dict state keyed by a value k the program computes from
//     packet fields is sound when FlowKey returns that same k — two
//     packets that can touch the same entry carry equal keys and land on
//     the same lane;
//   - global register arrays indexed by an expression idx(pkt) are sound
//     when FlowKey returns idx(pkt) (or any value that determines it) —
//     index collisions then imply lane collisions;
//   - cross-flow state (a count-min sketch row indexed by one hash while
//     lanes are keyed by another) is NOT lane-safe: run it at Lanes=1, or
//     merge per-lane arrays afterwards when every write is a commutative
//     increment (MergedGlobal).
//
// Backpressure. Feed accumulates packets into preallocated per-lane
// buffers of BatchSize; when a packet arrives for a full lane, Feed drains
// every pending lane in parallel (one worker per lane) before accepting
// it. Feed therefore never buffers more than Lanes×BatchSize packets and
// never returns while the stream is over capacity — the caller's Feed
// call IS the backpressure. The drain path reuses the compiled tier's
// zero-allocation execution loop, so the steady state allocates nothing
// per packet.
//
// Like the executors it builds on, a Stream is single-caller: one
// goroutine calls Feed/Flush/Close; the stream fans out internally.

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// StreamOptions configures OpenStream.
type StreamOptions struct {
	// Tier selects the execution backend. The zero value is
	// TierInterpreter, the reference: it keeps its state in the deployment
	// and is not thread-safe, so its lanes drain sequentially, and it
	// exists so the oracle can replay the same stream shape on the
	// reference semantics. Traffic replay asks for TierCompiled.
	Tier ExecutorTier
	// Lanes is the number of affinity lanes (and drain workers).
	// Default 1.
	Lanes int
	// BatchSize is the per-lane accumulation depth before a forced drain.
	// Default 256.
	BatchSize int
	// FlowKey extracts the flow key a packet's shared state is keyed by.
	// Packets whose state interactions are not confined to equal keys
	// violate the lane-affinity contract above. Default: all packets map
	// to key 0 (single-flow semantics). A one-lane stream never calls it.
	FlowKey func(*FlatPacket) uint64
	// Ctx is the switch environment for every hop (nil = zero context).
	// Traces that need per-packet time carry it in a packet field, like
	// the capture they were cut from.
	Ctx *Context
}

// StreamStats counts work done through one stream.
type StreamStats struct {
	Tier        string   `json:"tier"`
	Lanes       int      `json:"lanes"`
	BatchSize   int      `json:"batch_size"`
	Packets     uint64   `json:"packets"`
	Drains      uint64   `json:"drains"`       // coordinated drain rounds
	LaneBatches uint64   `json:"lane_batches"` // non-empty lane drains
	LanePackets []uint64 `json:"lane_packets"` // per-lane totals
}

// Stream is a long-lived replay session over one deployment path. It owns
// its lanes — they are not shared with the deployment's RunBatch lane
// pool — so concurrent one-shot replays on the same deployment cannot
// contaminate streaming state.
type Stream struct {
	d     *Deployment
	tier  ExecutorTier
	eng   *Engine
	units []*ccode // compiled tier: path units resolved once at open
	path  []string
	ctx   *Context

	lanes   []*lane
	pend    [][]*FlatPacket
	flowKey func(*FlatPacket) uint64
	batch   int
	drainFn func(int) // preallocated drain body

	// Persistent lane workers (multi-lane compiled streams only): spawning
	// goroutines per drain round would allocate in the steady state, so a
	// stream keeps one parked worker per lane for its whole life.
	work   chan int
	wg     sync.WaitGroup
	wpanic atomic.Pointer[workerPanic]

	packets     uint64
	drains      uint64
	laneBatches uint64
	lanePackets []uint64
	closed      bool
}

// OpenStream opens a streaming replay session along path. The path slice
// is retained; the caller must not mutate it while the stream is open.
func (d *Deployment) OpenStream(path []string, opts StreamOptions) (*Stream, error) {
	if len(path) == 0 {
		return nil, fmt.Errorf("dataplane: OpenStream needs a non-empty path")
	}
	if opts.Lanes <= 0 {
		opts.Lanes = 1
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	s := &Stream{
		d:           d,
		tier:        opts.Tier,
		path:        path,
		ctx:         opts.Ctx,
		flowKey:     opts.FlowKey,
		batch:       opts.BatchSize,
		pend:        make([][]*FlatPacket, opts.Lanes),
		lanePackets: make([]uint64, opts.Lanes),
	}
	if s.ctx == nil {
		s.ctx = &zeroCtx
	}
	eng, err := d.Engine()
	if err != nil {
		return nil, err
	}
	s.eng = eng
	switch opts.Tier {
	case TierInterpreter:
		// State lives in the deployment; lanes are accumulation buffers
		// only and drain sequentially on the caller's goroutine.
	case TierCompiled:
		s.units = eng.resolveUnits(path)
		s.lanes = make([]*lane, opts.Lanes)
		for i := range s.lanes {
			s.lanes[i] = eng.newLane()
		}
	default:
		return nil, fmt.Errorf("dataplane: unknown executor tier %v", opts.Tier)
	}
	for i := range s.pend {
		s.pend[i] = make([]*FlatPacket, 0, opts.BatchSize)
	}
	s.drainFn = s.drainLane
	if opts.Tier != TierInterpreter && opts.Lanes > 1 {
		s.startWorkers()
	}
	return s, nil
}

// workerPanic carries a lane worker's panic value back to the caller's
// goroutine, preserving the panics-cross-the-API-once contract of the
// one-shot executors.
type workerPanic struct{ value any }

// startWorkers parks one persistent drain worker per lane. Workers live
// until Close; dispatch is a channel send and a WaitGroup count, neither
// of which allocates, so multi-lane steady-state drains stay alloc-free.
func (s *Stream) startWorkers() {
	// Workers range over a captured local, not the s.work field: Close
	// nils the field on the caller's goroutine after closing the channel,
	// and a field read from a parked worker would race with that write.
	ch := make(chan int, len(s.pend))
	s.work = ch
	for i := 0; i < len(s.pend); i++ {
		go func() {
			for w := range ch {
				s.runWorker(w)
			}
		}()
	}
}

func (s *Stream) runWorker(w int) {
	defer s.wg.Done()
	defer func() {
		if v := recover(); v != nil {
			s.wpanic.CompareAndSwap(nil, &workerPanic{value: v})
		}
	}()
	s.drainFn(w)
}

// LaneOf maps a flow key to its lane: an FNV-1a mix of the key modulo the
// lane count, so adjacent keys spread instead of striping.
func (s *Stream) LaneOf(key uint64) int {
	return int(fnvMix(key) % uint64(len(s.pend)))
}

func fnvMix(v uint64) uint64 {
	var h uint64 = 14695981039346656037
	for sh := uint(0); sh < 64; sh += 8 {
		h ^= (v >> sh) & 0xff
		h *= 1099511628211
	}
	return h
}

// Feed accepts packets in stream order. Each packet is appended to its
// flow's lane; a packet arriving for a full lane first drains all pending
// lanes in parallel. Packets are mutated in place when their lane drains
// (at the latest by Flush/Close); the caller must not touch a fed packet
// until then.
func (s *Stream) Feed(pkts ...*FlatPacket) error {
	if s.closed {
		return fmt.Errorf("dataplane: Feed on closed stream")
	}
	// The whole call is validated first: a rejected call enqueues nothing.
	if err := s.eng.owns(pkts...); err != nil {
		return err
	}
	for _, f := range pkts {
		lane := 0
		if s.flowKey != nil && len(s.pend) > 1 {
			lane = s.LaneOf(s.flowKey(f))
		}
		if len(s.pend[lane]) == s.batch {
			s.drain()
		}
		s.pend[lane] = append(s.pend[lane], f)
		s.packets++
		s.lanePackets[lane]++
	}
	return nil
}

// drainLane executes one lane's pending packets in FIFO order and resets
// the buffer. Safe to run concurrently across distinct lanes on the
// compiled tier.
func (s *Stream) drainLane(w int) {
	pkts := s.pend[w]
	if len(pkts) == 0 {
		return
	}
	if s.tier == TierCompiled {
		l := s.lanes[w]
		for _, f := range pkts {
			runResolved(l, s.units, s.ctx, f)
		}
	} else { // TierInterpreter: deployment state, sequential by contract
		for _, f := range pkts {
			out, err := s.d.RunPath(s.path, s.ctx, f.Packet())
			if err == nil {
				f.load(out)
			}
		}
	}
	s.pend[w] = pkts[:0]
}

// drain runs every pending lane — in parallel on the compiled tier, one
// worker per lane — and counts the round.
func (s *Stream) drain() {
	active := 0
	for _, p := range s.pend {
		if len(p) > 0 {
			active++
		}
	}
	if active == 0 {
		return
	}
	s.drains++
	s.laneBatches += uint64(active)
	if s.work != nil {
		s.wg.Add(len(s.pend))
		for w := range s.pend {
			s.work <- w
		}
		s.wg.Wait()
		if p := s.wpanic.Swap(nil); p != nil {
			panic(p.value)
		}
		return
	}
	// Single lane, or the interpreter tier (deployment state, sequential
	// by contract): drain on the caller's goroutine.
	for w := range s.pend {
		s.drainFn(w)
	}
}

// Flush drains every pending lane. The stream remains open.
func (s *Stream) Flush() {
	if !s.closed {
		s.drain()
	}
}

// Close flushes and seals the stream. Lane state stays readable through
// TableEntry/GlobalAt/MergedGlobal after Close.
func (s *Stream) Close() {
	if s.closed {
		return
	}
	s.drain()
	s.closed = true
	if s.work != nil {
		close(s.work)
		s.work = nil
	}
}

// Stats reports stream-lifetime counters. The LanePackets slice is live.
func (s *Stream) Stats() StreamStats {
	return StreamStats{
		Tier:        s.tier.String(),
		Lanes:       len(s.pend),
		BatchSize:   s.batch,
		Packets:     s.packets,
		Drains:      s.drains,
		LaneBatches: s.laneBatches,
		LanePackets: s.lanePackets,
	}
}

// TableEntry reads one extern-table entry as switch sw's program on the
// given lane sees it: lane-local data-plane inserts included. On the
// interpreter tier (lane ignored) it reads the deployment's shard table.
func (s *Stream) TableEntry(lane int, sw, extern string, key uint64) (uint64, bool, error) {
	if s.tier == TierInterpreter {
		src := s.d.shardTables[sw]
		if src == nil {
			return 0, false, fmt.Errorf("dataplane: switch %q has no shard tables", sw)
		}
		es := src.Externs[extern]
		if es == nil {
			return 0, false, nil
		}
		v, ok := es.Entries[key]
		return v, ok, nil
	}
	cu := s.eng.bySwitch[sw]
	if cu == nil {
		return 0, false, fmt.Errorf("dataplane: switch %q has no program", sw)
	}
	ei, ok := s.eng.layout.externSlot[extern]
	if !ok {
		return 0, false, fmt.Errorf("dataplane: unknown extern %q", extern)
	}
	if lane < 0 || lane >= len(s.lanes) {
		return 0, false, fmt.Errorf("dataplane: lane %d out of range [0,%d)", lane, len(s.lanes))
	}
	v, ok := s.lanes[lane].tables[cu.stateIdx][ei].entries[key]
	return v, ok, nil
}

// GlobalAt reads one cell of a global register array as switch sw's
// program on the given lane sees it. On the interpreter tier (lane
// ignored) it reads the deployment's per-switch store.
func (s *Stream) GlobalAt(lane int, sw, global string, idx uint64) (uint64, error) {
	gi, ok := s.eng.layout.globalSlot[global]
	if !ok {
		return 0, fmt.Errorf("dataplane: unknown global %q", global)
	}
	spec := s.eng.layout.globals[gi]
	if s.tier == TierInterpreter {
		gs := s.d.globals[sw]
		if gs == nil {
			return 0, fmt.Errorf("dataplane: switch %q has no globals", sw)
		}
		return gs.read(global, spec.length, idx), nil
	}
	cu := s.eng.bySwitch[sw]
	if cu == nil {
		return 0, fmt.Errorf("dataplane: switch %q has no program", sw)
	}
	if lane < 0 || lane >= len(s.lanes) {
		return 0, fmt.Errorf("dataplane: lane %d out of range [0,%d)", lane, len(s.lanes))
	}
	arr := s.lanes[lane].globals[cu.stateIdx][gi]
	if idx >= uint64(len(arr)) {
		return 0, nil
	}
	return arr[idx], nil
}

// MergedGlobal sums a global register array across all lanes for one
// switch — the export path for commutative-increment state like sketch
// rows, where the per-lane partial counts add up to the single-lane
// totals regardless of how flows were spread.
func (s *Stream) MergedGlobal(sw, global string) ([]uint64, error) {
	gi, ok := s.eng.layout.globalSlot[global]
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown global %q", global)
	}
	spec := s.eng.layout.globals[gi]
	out := make([]uint64, spec.length)
	if s.tier == TierInterpreter {
		gs := s.d.globals[sw]
		if gs == nil {
			return nil, fmt.Errorf("dataplane: switch %q has no globals", sw)
		}
		for i := range out {
			out[i] = gs.read(global, spec.length, uint64(i)) & spec.mask
		}
		return out, nil
	}
	cu := s.eng.bySwitch[sw]
	if cu == nil {
		return nil, fmt.Errorf("dataplane: switch %q has no program", sw)
	}
	for _, l := range s.lanes {
		for i, v := range l.globals[cu.stateIdx][gi] {
			out[i] = (out[i] + v) & spec.mask
		}
	}
	return out, nil
}

// FlowKeyField builds a FlowKey that returns one field's raw value — the
// right key when state is keyed/indexed directly by that field.
func (e *Engine) FlowKeyField(name string) (func(*FlatPacket) uint64, error) {
	slot, ok := e.layout.fieldSlot[name]
	if !ok {
		return nil, fmt.Errorf("dataplane: unknown field %q", name)
	}
	return func(f *FlatPacket) uint64 { return f.w[slot] }, nil
}

// FlowKeyHash builds a FlowKey computing the same hash the data plane's
// hash units compute — kind is "crc32_hash" or "crc16_hash", bits the
// width of the variable the program stores it into, andMask an optional
// extra mask (0 = none) matching a `h & (N-1)` index derivation. A
// program keying its state by that hash then gets a lane assignment that
// is a function of the state key, satisfying the affinity contract.
func (e *Engine) FlowKeyHash(kind string, bits int, andMask uint64, fields ...string) (func(*FlatPacket) uint64, error) {
	slots := make([]int, len(fields))
	for i, name := range fields {
		s, ok := e.layout.fieldSlot[name]
		if !ok {
			return nil, fmt.Errorf("dataplane: unknown field %q", name)
		}
		slots[i] = s
	}
	crc16 := kind == "crc16_hash"
	storeMask := maskBits(bits)
	if andMask == 0 {
		andMask = ^uint64(0)
	}
	return func(f *FlatPacket) uint64 {
		var h uint64 = 14695981039346656037
		for _, s := range slots {
			v := f.w[s]
			for sh := uint(0); sh < 64; sh += 8 {
				h ^= (v >> sh) & 0xff
				h *= 1099511628211
			}
		}
		if crc16 {
			h = (h >> 16) ^ (h & 0xffff)
		}
		return h & storeMask & andMask
	}, nil
}

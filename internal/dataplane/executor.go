package dataplane

// The unified Executor API. A deployment executes packets through two tiers
// that implement identical semantics over the same placed programs and
// share no execution code:
//
//	TierInterpreter — the tree-walking interpreter over map-based Packets
//	                  (exec.go). Slow; the reference.
//	TierCompiled    — the closure-threaded compiled backend over the
//	                  lowered units (lower.go, compile.go). The production
//	                  executor; cross-checked against the interpreter.
//
// Both tiers speak FlatPacket at the interface (the engine's Layout is the
// deployment-wide packet currency); the interpreter tier converts at the
// boundary. Callers ask for a tier with ExecutorFor.

import "fmt"

// ExecutorTier names one of the two execution backends. The zero value is
// the interpreter: a caller that names no tier gets the reference
// semantics, and asks for speed explicitly.
type ExecutorTier int

const (
	TierInterpreter ExecutorTier = iota
	TierCompiled
)

func (t ExecutorTier) String() string {
	switch t {
	case TierInterpreter:
		return "interpreter"
	case TierCompiled:
		return "compiled"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Executor runs packets through one execution tier of a deployment. Like
// the engine it wraps, an Executor is single-caller: one goroutine calls
// RunPacket/RunBatch at a time (RunBatch fans out internally).
type Executor interface {
	// RunPacket pushes one packet along a flow path, mutating it in place.
	RunPacket(path []string, ctx *Context, f *FlatPacket) error
	// RunBatch replays a batch along a path across up to workers lanes
	// (workers <= 0 means all CPUs; the interpreter tier runs sequentially
	// regardless). Packets are mutated in place.
	RunBatch(path []string, ctx *Context, pkts []*FlatPacket, workers int) error
}

// interpExecutor adapts the tree-walking interpreter to the Executor
// interface: packets convert to maps at the boundary, and the deployment's
// persistent per-switch globals carry state across packets (the compiled
// tier keeps that state in lanes instead).
type interpExecutor struct{ d *Deployment }

func (x *interpExecutor) RunPacket(path []string, ctx *Context, f *FlatPacket) error {
	out, err := x.d.RunPath(path, ctx, f.Packet())
	if err != nil {
		return err
	}
	f.load(out)
	return nil
}

func (x *interpExecutor) RunBatch(path []string, ctx *Context, pkts []*FlatPacket, workers int) error {
	for _, f := range pkts {
		if err := x.RunPacket(path, ctx, f); err != nil {
			return err
		}
	}
	return nil
}

// compiledExecutor adapts the closure-threaded compiled tier. Single-packet
// runs share lane 0 with single-worker batches, so stateful programs see
// one continuous stream.
type compiledExecutor struct{ e *Engine }

func (x *compiledExecutor) RunPacket(path []string, ctx *Context, f *FlatPacket) error {
	if err := x.e.owns(f); err != nil {
		return err
	}
	x.e.ensureLanes(1)
	x.e.runPacket(x.e.lanes[0], path, ctx, f)
	return nil
}

func (x *compiledExecutor) RunBatch(path []string, ctx *Context, pkts []*FlatPacket, workers int) error {
	if err := x.e.owns(pkts...); err != nil {
		return err
	}
	x.e.runBatch(path, ctx, pkts, workers)
	return nil
}

// ExecutorFor returns the given tier's executor for this deployment,
// building and caching it on first use. Both tiers share the engine's
// Layout, so FlatPackets flow between them freely.
func (d *Deployment) ExecutorFor(t ExecutorTier) (Executor, error) {
	if int(t) < 0 || int(t) >= len(d.execs) {
		return nil, fmt.Errorf("dataplane: unknown executor tier %v", t)
	}
	if x := d.execs[t]; x != nil {
		return x, nil
	}
	var x Executor
	switch t {
	case TierInterpreter:
		x = &interpExecutor{d: d}
	case TierCompiled:
		e, err := d.Engine()
		if err != nil {
			return nil, err
		}
		x = &compiledExecutor{e: e}
	}
	d.execs[t] = x
	return x, nil
}

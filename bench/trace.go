package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded by
// the benchmark's own files around the calls into each layer; the system
// under test carries no instrumentation of its own.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int           // index of the enclosing span, -1 at the root
	op         int           // operation the span belongs to
}

// tracer keeps spans in memory and writes them out when the run ends. A
// nil tracer records nothing, so the same op code serves the traced and
// the untraced run. One goroutine (the closed-loop driver) uses it.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string, op int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: time.Since(t.epoch)})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.epoch)
	t.open = t.open[:len(t.open)-1]
}

// split records two back-to-back child spans inside the span id, the first
// lasting d: the shape of a layer that reports its own internal split
// (encode.Solve returns EncodeTime and SolveTime) instead of exposing two
// calls to wrap.
func (t *tracer) split(id int, first string, d time.Duration, second string) {
	if t == nil {
		return
	}
	p := t.spans[id]
	mid := p.start + d
	if mid > p.end {
		mid = p.end
	}
	t.spans = append(t.spans,
		span{name: first, parent: id, op: p.op, start: p.start, end: mid},
		span{name: second, parent: id, op: p.op, start: mid, end: p.end})
}

// note records a span of known duration d that ends now: a time the layer
// measured itself and reported (the daemon's compile_ms).
func (t *tracer) note(name string, op int, d time.Duration) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	now := time.Since(t.epoch)
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now - d, end: now})
}

// spanNames lists the distinct span names recorded, in first-seen order.
func (t *tracer) spanNames() []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range t.spans {
		if !seen[s.name] {
			seen[s.name] = true
			out = append(out, s.name)
		}
	}
	return out
}

// perOp totals the duration of every span with one of the given names per
// operation, in ms.
func (t *tracer) perOp(names ...string) map[int]float64 {
	sums := map[int]float64{}
	for _, s := range t.spans {
		for _, n := range names {
			if s.name == n {
				sums[s.op] += ms(s.end - s.start)
			}
		}
	}
	return sums
}

// medianMs is the median over operations of perOp(name); 0 when no such
// span was recorded.
func (t *tracer) medianMs(name string) float64 {
	var xs []float64
	for _, v := range t.perOp(name) {
		xs = append(xs, v)
	}
	return median(xs)
}

// ledgerGap is the median over operations of the opaque call's time minus
// the sum of its staged replay's stages: what the stages do not explain.
// Taking the difference per operation first keeps slow drift of the host
// out of it, since both sides of one op run back to back.
func (t *tracer) ledgerGap() float64 {
	whole := t.perOp(opaqueSpans...)
	stages := t.perOp(stageNames...)
	var gaps []float64
	for op, w := range whole {
		gaps = append(gaps, w-stages[op])
	}
	return median(gaps)
}

// selfTimes returns every span's duration minus the part its children
// cover.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// chromeTraceOps caps how many operations' spans are written out: the
// ledger is computed from all of them, but a trace viewer wants a file it
// can open.
const chromeTraceOps = 32

// writeChrome writes the first chromeTraceOps operations as Chrome trace
// JSON (chrome://tracing, Perfetto).
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	self := t.selfTimes()
	firstOp := -1
	w.WriteString("{\"traceEvents\":[\n")
	wrote := false
	for i, s := range t.spans {
		if firstOp < 0 {
			firstOp = s.op
		}
		if s.op >= firstOp+chromeTraceOps {
			continue
		}
		ev, err := json.Marshal(map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": 1,
			"ts":  float64(s.start) / float64(time.Microsecond),
			"dur": float64(s.end-s.start) / float64(time.Microsecond),
			"args": map[string]any{
				"id": i, "parent": s.parent, "op": s.op,
				"self_us": float64(self[i]) / float64(time.Microsecond),
			},
		})
		if err != nil {
			f.Close()
			return err
		}
		if wrote {
			w.WriteString(",\n")
		}
		w.Write(ev)
		wrote = true
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

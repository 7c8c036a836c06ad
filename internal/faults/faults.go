// Package faults describes network-change events — the perturbations the
// paper's operational story revolves around (§6.3, §7: "when a switch
// fails, the operator only needs to update the network specification and
// recompile"). A Scenario is an ordered list of events applied to a
// topo.Network; deterministic generators enumerate standard fault sweeps
// for evaluation and regression testing.
package faults

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"lyra/internal/asic"
	"lyra/internal/topo"
)

// Kind discriminates fault events.
type Kind int

// Event kinds.
const (
	// KindSwitchDown removes a switch and all its links.
	KindSwitchDown Kind = iota
	// KindLinkDown removes one link.
	KindLinkDown
	// KindDegrade replaces a switch's chip model with a reduced-resource
	// copy (partial hardware failure, or a swap to a smaller chip).
	KindDegrade
)

func (k Kind) String() string {
	switch k {
	case KindSwitchDown:
		return "switch-down"
	case KindLinkDown:
		return "link-down"
	case KindDegrade:
		return "degrade"
	}
	return "unknown"
}

// Event is one fault.
type Event struct {
	Kind   Kind
	Switch string // SwitchDown, Degrade
	A, B   string // LinkDown endpoints
	// Degrade factors in (0,1]: fraction of stages, memory, and PHV that
	// survive. Zero values are treated as 1 (no reduction on that axis).
	StageFactor, MemoryFactor, PHVFactor float64
}

func (e Event) String() string {
	switch e.Kind {
	case KindSwitchDown:
		return fmt.Sprintf("switch-down(%s)", e.Switch)
	case KindLinkDown:
		return fmt.Sprintf("link-down(%s—%s)", e.A, e.B)
	case KindDegrade:
		stage, memory, phv := e.Factors()
		return fmt.Sprintf("degrade(%s,stages=%.2f,mem=%.2f,phv=%.2f)", e.Switch, stage, memory, phv)
	}
	return "unknown-event"
}

// Factors returns a degrade's stage, memory and PHV factors as they are
// applied: a factor outside (0, 1] is 1.
func (e Event) Factors() (stage, memory, phv float64) {
	return orOne(e.StageFactor), orOne(e.MemoryFactor), orOne(e.PHVFactor)
}

func orOne(f float64) float64 {
	if f <= 0 || f > 1 {
		return 1
	}
	return f
}

// SwitchDown builds a switch-failure event.
func SwitchDown(name string) Event { return Event{Kind: KindSwitchDown, Switch: name} }

// LinkDown builds a link-failure event.
func LinkDown(a, b string) Event { return Event{Kind: KindLinkDown, A: a, B: b} }

// Degrade builds a resource-degradation event. Factors are the surviving
// fraction of stages, memory, and PHV respectively; pass 1 (or 0) to leave
// an axis untouched.
func Degrade(name string, stageF, memF, phvF float64) Event {
	return Event{Kind: KindDegrade, Switch: name,
		StageFactor: stageF, MemoryFactor: memF, PHVFactor: phvF}
}

// Scenario is a named, ordered set of fault events.
type Scenario struct {
	Name   string
	Events []Event
}

// String renders the scenario deterministically.
func (s Scenario) String() string {
	if len(s.Events) == 0 {
		return s.Name + ": (no events)"
	}
	parts := make([]string, len(s.Events))
	for i, e := range s.Events {
		parts[i] = e.String()
	}
	return s.Name + ": " + strings.Join(parts, ", ")
}

// Applied returns a clone of net with every event applied in order; net
// itself is never touched. It is the one clone a recompile needs: the caller
// keeps the pristine topology and compiles against the returned one.
func (s Scenario) Applied(net *topo.Network) (*topo.Network, error) {
	work := net.Clone()
	for _, e := range s.Events {
		var err error
		switch e.Kind {
		case KindSwitchDown:
			err = work.RemoveSwitch(e.Switch)
		case KindLinkDown:
			err = work.RemoveLink(e.A, e.B)
		case KindDegrade:
			stage, memory, phv := e.Factors()
			err = work.DegradeASIC(e.Switch, func(m *asic.Model) *asic.Model {
				return asic.Scale(m, stage, memory, phv)
			})
		default:
			err = fmt.Errorf("faults: unknown event kind %d", e.Kind)
		}
		if err != nil {
			return nil, fmt.Errorf("faults: scenario %s: event %s: %w", s.Name, e, err)
		}
	}
	return work, nil
}

// Apply mutates the network in event order, atomically: events are applied
// to a clone (see Applied), which replaces net's contents only once every
// event has succeeded. A failing event therefore aborts with an error and
// leaves net exactly as it was — earlier events of the scenario are never
// stranded half-applied on a live topology.
func (s Scenario) Apply(net *topo.Network) error {
	work, err := s.Applied(net)
	if err != nil {
		return err
	}
	net.ReplaceWith(work)
	return nil
}

// SingleSwitchFailures enumerates one scenario per switch in the network,
// in sorted name order — the classic single-failure sweep.
func SingleSwitchFailures(net *topo.Network) []Scenario {
	var out []Scenario
	for _, name := range net.Names() {
		out = append(out, Scenario{
			Name:   "switch-down-" + name,
			Events: []Event{SwitchDown(name)},
		})
	}
	return out
}

// SingleLinkFailures enumerates one scenario per link, in deterministic
// (lexicographic endpoint) order.
func SingleLinkFailures(net *topo.Network) []Scenario {
	seen := map[string]bool{}
	var out []Scenario
	for _, a := range net.Names() {
		for _, b := range net.Neighbors(a) {
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			key := lo + "—" + hi
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, Scenario{
				Name:   "link-down-" + lo + "-" + hi,
				Events: []Event{LinkDown(lo, hi)},
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// KRandomFaults draws k distinct fault events (switch or link failures)
// with a seeded RNG, so a fuzz sweep is reproducible from its seed. Events
// never target the same switch or link twice within a scenario.
func KRandomFaults(net *topo.Network, k int, seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	names := net.Names()
	type link struct{ a, b string }
	var links []link
	seen := map[string]bool{}
	for _, a := range names {
		for _, b := range net.Neighbors(a) {
			lo, hi := a, b
			if lo > hi {
				lo, hi = hi, lo
			}
			if key := lo + "—" + hi; !seen[key] {
				seen[key] = true
				links = append(links, link{lo, hi})
			}
		}
	}
	sc := Scenario{Name: fmt.Sprintf("random-k%d-seed%d", k, seed)}
	downSwitch := map[string]bool{}
	downLink := map[string]bool{}
	// Bounded draw loop: once every switch is down (or every link covered)
	// further picks are rejected, so cap the attempts rather than spin.
	for attempts := 0; len(sc.Events) < k && attempts < 64*(k+len(names)+len(links)); attempts++ {
		if rng.Intn(2) == 0 && len(downSwitch) < len(names) {
			name := names[rng.Intn(len(names))]
			if downSwitch[name] {
				continue
			}
			downSwitch[name] = true
			sc.Events = append(sc.Events, SwitchDown(name))
			continue
		}
		if len(links) == 0 {
			continue
		}
		l := links[rng.Intn(len(links))]
		key := l.a + "—" + l.b
		// A link vanishes with either endpoint; skip already-covered picks.
		if downLink[key] || downSwitch[l.a] || downSwitch[l.b] {
			continue
		}
		downLink[key] = true
		sc.Events = append(sc.Events, LinkDown(l.a, l.b))
	}
	return sc
}

package ir

// SlotMap assigns dense register slots to SSA variables so an executor can
// hold the environment of a straight-line instruction block in a flat
// []uint64 instead of a map[*Var]uint64. Slots are handed out in first-use
// order and are stable for a given instruction sequence, which makes
// lowered programs deterministic. The data-plane lowering is the
// primary consumer; anything that wants a dense numbering of the variables
// touched by a block (register allocation, liveness bitsets) can reuse it.
type SlotMap struct {
	slots map[*Var]int
	vars  []*Var
}

// NewSlotMap returns an empty assignment.
func NewSlotMap() *SlotMap {
	return &SlotMap{slots: map[*Var]int{}}
}

// Add assigns the next free slot to v (idempotent) and returns v's slot.
func (m *SlotMap) Add(v *Var) int {
	if s, ok := m.slots[v]; ok {
		return s
	}
	s := len(m.vars)
	m.slots[v] = s
	m.vars = append(m.vars, v)
	return s
}

// AddInstrs assigns slots to every variable the instructions touch:
// destinations, operands, and guard predicates, in program order.
func (m *SlotMap) AddInstrs(instrs []*Instr) {
	for _, in := range instrs {
		for _, g := range in.Guard {
			m.Add(g.Var)
		}
		for _, a := range in.Args {
			if a.Kind == OpdVar {
				m.Add(a.Var)
			}
		}
		if in.Dest.Kind == DestVar {
			m.Add(in.Dest.Var)
		}
	}
}

// Of returns v's slot, or (-1, false) when v was never assigned.
func (m *SlotMap) Of(v *Var) (int, bool) {
	s, ok := m.slots[v]
	if !ok {
		return -1, false
	}
	return s, true
}

// Len returns the number of slots assigned.
func (m *SlotMap) Len() int { return len(m.vars) }

// Vars returns the assigned variables in slot order (slot i holds Vars()[i]).
func (m *SlotMap) Vars() []*Var { return m.vars }

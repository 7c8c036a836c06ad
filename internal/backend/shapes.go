package backend

import (
	"sync"

	"lyra/internal/encode"
)

// Shapes is a recompile family's shape memo (a family is a base compile and
// every recompile made from it or its descendants, on one IR), carried like
// encode.Cache. Per shape and language it holds the program built and its
// emission, and the artifact verification checked with its report: a switch of
// a shape it holds is only instantiated. The zero value is empty; a nil memo,
// and any memo under TestMutation, holds and keeps nothing. It is safe for
// concurrent recompiles and starts over at encode.DefaultCacheEntries shapes,
// the class memo's bound (a churn loop on a k=32 fabric meets 31).
type Shapes struct {
	mu               sync.Mutex
	entries          map[shapeKey]*shaped
	printed, checked int // shapes printed and verified into it, for tests
}

type shapeKey struct{ shape, lang string }

type shaped struct {
	em      *emission
	checked *Artifact // what verification checked; verdict is its report
	verdict any
}

// with runs f on a shape's entry under the lock, made if add; else a no-op.
func (m *Shapes) with(shape, lang string, add bool, f func(e *shaped)) {
	if m == nil || TestMutation != nil {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := shapeKey{shape, lang}
	e := m.entries[k]
	if e == nil && add {
		if m.entries == nil || len(m.entries) >= encode.DefaultCacheEntries {
			m.entries = map[shapeKey]*shaped{}
		}
		e = &shaped{}
		m.entries[k] = e
	}
	if e != nil {
		f(e)
	}
}

// get returns the memoised emission of a shape in a language, or nil.
func (m *Shapes) get(shape, lang string) (em *emission) {
	m.with(shape, lang, false, func(e *shaped) { em = e.em })
	return em
}

// put memoises a shape's emission.
func (m *Shapes) put(shape string, em *emission) {
	m.with(shape, em.like.Dialect, true, func(e *shaped) { e.em = em; m.printed++ })
}

// Verdict returns the artifact checked for a shape and its opaque report.
func (m *Shapes) Verdict(shape, lang string) (checked *Artifact, verdict any) {
	m.with(shape, lang, false, func(e *shaped) { checked, verdict = e.checked, e.verdict })
	return checked, verdict
}

// SetVerdict memoises the artifact checked for a shape and its report.
func (m *Shapes) SetVerdict(shape string, checked *Artifact, verdict any) {
	m.with(shape, checked.Dialect, true, func(e *shaped) { e.checked, e.verdict = checked, verdict; m.checked++ })
}

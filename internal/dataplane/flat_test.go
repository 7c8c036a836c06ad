package dataplane

import (
	"fmt"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"
)

// bitLayout is a hand-built layout of nf 64-bit fields (h.f0, h.f1, …), nv
// headers (h0, …) and nb bridge variables (b0, …).
func bitLayout(nf, nv, nb int) *Layout {
	lay := newLayout()
	for i := 0; i < nf; i++ {
		lay.ensureField(fmt.Sprintf("h.f%d", i), 64)
	}
	for i := 0; i < nv; i++ {
		lay.ensureValid(fmt.Sprintf("h%d", i))
	}
	for i := 0; i < nb; i++ {
		lay.ensureBridge(fmt.Sprintf("b%d", i))
	}
	return lay
}

// engineOn is an engine over lay whose one switch unit is u, compiled
// against lay as it stands.
func engineOn(lay *Layout, u *compiledUnit) *Engine {
	e := &Engine{dep: &Deployment{}, layout: lay, bySwitch: map[string]*ccode{}}
	e.addUnit(u)
	return e
}

// onesIn counts the bits set anywhere in a packet's slab.
func onesIn(f *FlatPacket) int {
	n := 0
	for _, w := range f.w {
		n += bits.OnesCount64(w)
	}
	return n
}

// TestFlatPacketBitsAtWordBoundaries holds the packed-bit layout of a
// FlatPacket slab on layouts whose bits run past one word: each kind of bit
// (field-present, header-valid, header-valid-set, bridge-present) crosses a
// word boundary in at least one of them. Flattening and converting back is
// the identity, fields and bridge variables written to zero included; every
// compiled write sets exactly its own bits; no two packets share a slab.
func TestFlatPacketBitsAtWordBoundaries(t *testing.T) {
	for _, sz := range []struct{ nf, nv, nb int }{
		{33, 16, 15}, // header-valid-set crosses into the second bit word
		{63, 1, 1},   // field-present ends one short of it
		{70, 5, 5},   // field-present crosses it
		{40, 2, 30},  // bridge-present crosses it
		{33, 40, 60}, // header-valid crosses it; three bit words
	} {
		t.Run(fmt.Sprintf("nf=%d,nv=%d,nb=%d", sz.nf, sz.nv, sz.nb), func(t *testing.T) {
			nbits := sz.nf + 2*sz.nv + sz.nb
			lay := bitLayout(sz.nf, sz.nv, sz.nb)
			eng := engineOn(lay, &compiledUnit{})
			if got, want := len(eng.NewFlatPacket().w), sz.nf+sz.nb+(nbits+63)/64; got != want || nbits <= 64 {
				t.Fatalf("slab of %d words for %d bits, want %d words and more than 64 bits", got, nbits, want)
			}

			rng := rand.New(rand.NewSource(int64(nbits)))
			for i := 0; i < 100; i++ {
				p := NewPacket()
				for _, name := range lay.fieldName {
					if rng.Intn(2) == 0 {
						p.Fields[name] = uint64(rng.Intn(3)) // zero a third of the time
					}
				}
				for _, name := range lay.validName {
					if r := rng.Intn(3); r < 2 {
						p.Valid[name] = r == 1
					}
				}
				for _, name := range lay.bridgeName {
					if rng.Intn(2) == 0 {
						p.Bridge[name] = uint64(rng.Intn(3))
					}
				}
				p.Dropped, p.Mirrored, p.ToCPU, p.EgressPort = rng.Intn(2) == 0, rng.Intn(2) == 0, rng.Intn(2) == 0, uint64(rng.Intn(4))
				if got := eng.Flatten(p).Packet(); !reflect.DeepEqual(got, p) {
					t.Fatalf("round trip:\n  got  %+v\n  want %+v", got, p)
				}
			}

			// Each compiled write runs alone on an empty packet; what it
			// leaves must be its own key and nothing else.
			run := func(u *compiledUnit, f *FlatPacket) *Packet {
				e := engineOn(lay, u)
				runUnit(e.newLane(), e.units[0], &zeroCtx, f)
				return f.Packet()
			}
			zero := opRef{kind: oConst}
			for s, name := range lay.fieldName {
				f := eng.NewFlatPacket()
				got := run(&compiledUnit{code: []binstr{unguarded(dField, int32(s), zero)}}, f)
				if want := (&Packet{Fields: map[string]uint64{name: 0}, Valid: map[string]bool{}, Bridge: map[string]uint64{}}); !reflect.DeepEqual(got, want) || onesIn(f) != 1 {
					t.Errorf("store of 0 to %s left %+v, %d bits set; want only its present bit", name, got, onesIn(f))
				}
			}
			allValid := NewPacket()
			for _, name := range lay.validName {
				allValid.Valid[name] = true
			}
			for s, name := range lay.validName {
				add := &compiledUnit{code: []binstr{{op: bHeaderAdd, table: int32(s), gate: -1}}}
				remove := &compiledUnit{code: []binstr{{op: bHeaderRemove, table: int32(s), gate: -1}}}
				f := eng.NewFlatPacket()
				if got := run(add, f); !reflect.DeepEqual(got.Valid, map[string]bool{name: true}) || len(got.Fields)+len(got.Bridge) != 0 || onesIn(f) != 2 {
					t.Errorf("add of %s left %+v, %d bits set; want its valid and valid-set bits", name, got, onesIn(f))
				}
				f = eng.NewFlatPacket()
				if got := run(remove, f); !reflect.DeepEqual(got.Valid, map[string]bool{name: false}) || len(got.Fields)+len(got.Bridge) != 0 || onesIn(f) != 1 {
					t.Errorf("remove of absent %s left %+v, %d bits set; want its valid-set bit", name, got, onesIn(f))
				}
				f = eng.Flatten(allValid)
				want := NewPacket()
				for _, n := range lay.validName {
					want.Valid[n] = n != name
				}
				if got := run(remove, f); !reflect.DeepEqual(got, want) || onesIn(f) != 2*sz.nv-1 {
					t.Errorf("remove of valid %s left %+v, %d bits set; want its valid bit cleared and nothing else", name, got, onesIn(f))
				}
			}
			for s, name := range lay.bridgeName {
				f := eng.NewFlatPacket()
				got := run(&compiledUnit{numRegs: 1, exports: []bridgeMove{{reg: 0, slot: int32(s)}}}, f)
				if want := (&Packet{Fields: map[string]uint64{}, Valid: map[string]bool{}, Bridge: map[string]uint64{name: 0}}); !reflect.DeepEqual(got, want) || onesIn(f) != 1 {
					t.Errorf("export of 0 to %s left %+v, %d bits set; want only its present bit", name, got, onesIn(f))
				}
			}

			// Packets made every way never share a slab.
			full := NewPacket()
			for _, name := range lay.fieldName {
				full.Fields[name] = 1
			}
			pkts := []*FlatPacket{eng.NewFlatPacket(), eng.NewFlatPacket(), eng.Flatten(full), eng.Flatten(NewPacket())}
			cp := eng.NewFlatPacket()
			cp.CopyFrom(pkts[2])
			pkts = append(pkts, cp)
			for i, f := range pkts {
				before := make([]int, len(pkts))
				for j, g := range pkts {
					before[j] = onesIn(g)
				}
				for k := range f.w {
					f.w[k] = ^uint64(0)
				}
				for j, g := range pkts {
					if j != i && onesIn(g) != before[j] {
						t.Fatalf("writing packet %d's slab changed packet %d", i, j)
					}
				}
				f.Reset()
			}
		})
	}
}

// TestCopyFromOwnsOverflow: a copy gets its own overflow. CopyFrom used to
// hand the copy its source's overflow maps, so a SetField of an undeclared
// field on the copy wrote into the source.
func TestCopyFromOwnsOverflow(t *testing.T) {
	eng := engineFor(t, wireSrc)
	p := NewPacket()
	p.Valid["ipv4"] = true
	p.Fields["ipv4.ttl"] = 9
	p.Fields["undeclared.y"] = 1
	p.Valid["undeclared"] = true
	p.Bridge["undeclared_var"] = 3
	src := eng.Flatten(p)
	dst := eng.NewFlatPacket()
	dst.CopyFrom(src)
	if dst.SetField("undeclared.x", 2) {
		t.Fatal("undeclared.x is in the layout: the test is vacuous")
	}
	if got := src.Packet(); !reflect.DeepEqual(got, p) {
		t.Errorf("SetField on a copy changed its source: %s", got.Summary())
	}
	want := NewPacket()
	for k, v := range p.Fields {
		want.Fields[k] = v
	}
	want.Fields["undeclared.x"] = 2
	want.Valid, want.Bridge = p.Valid, p.Bridge
	if got := dst.Packet(); !reflect.DeepEqual(got, want) {
		t.Errorf("copy = %s, want %s", got.Summary(), want.Summary())
	}
	// A copy of an in-layout packet still allocates nothing.
	in := NewPacket()
	in.Valid["ipv4"] = true
	in.Fields["ipv4.ttl"] = 9
	tmpl := eng.Flatten(in)
	dst.CopyFrom(tmpl)
	if dst.ov != nil {
		t.Error("copying an in-layout packet kept the old overflow")
	}
	if !raceEnabled {
		if n := testing.AllocsPerRun(50, func() { dst.CopyFrom(tmpl) }); n != 0 {
			t.Errorf("CopyFrom of an in-layout packet allocates %v times, want 0", n)
		}
	}
}

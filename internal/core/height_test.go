package core

import (
	"math/rand"
	"testing"

	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// heightProblem prepares l's scheduling problem with a fresh scratch
// attached (heightR writes its output there), as scheduleLoop does with a
// pooled one.
func heightProblem(t *testing.T, l *ir.Loop, m *machine.Machine) *problem {
	t.Helper()
	p, err := newProblem(nil, l, m, DefaultOptions(), new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHeightREqualsMinDistToStop verifies the paper's identity: HeightR(P)
// is exactly MinDist[P, STOP] (Section 3.2 notes the two are
// interchangeable; the iterative solver is just cheaper).
func TestHeightREqualsMinDistToStop(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		l := randomLoop(t, m, rng)
		p := heightProblem(t, l, m)
		bounds, err := mii.Compute(l, m, p.delays, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ii := bounds.MII; ii < bounds.MII+3; ii++ {
			h, err := p.heightR(ii)
			if err != nil {
				t.Fatalf("trial %d ii %d: %v", trial, ii, err)
			}
			md := mii.ComputeMinDist(l, p.delays, ii, mii.AllNodes(l), nil)
			for op := range l.Ops {
				want := md.At(op, l.Stop())
				if want == mii.NegInf {
					want = 0 // unreachable-from means height 0
				}
				if h[op] != want {
					t.Fatalf("trial %d ii %d: HeightR(%d) = %d, MinDist[%d,STOP] = %d",
						trial, ii, op, h[op], op, want)
				}
			}
		}
	}
}

// TestHeightRDivergesBelowRecMII: below the RecMII the equations have no
// fixpoint and heightR must report the positive cycle rather than loop.
func TestHeightRDivergesBelowRecMII(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(1), b.Invariant("x")) // RecMII 4
		b.Effect("brtop")
	})
	p := heightProblem(t, l, m)
	if _, err := p.heightR(3); err == nil {
		t.Error("HeightR at II below RecMII should fail")
	}
	if _, err := p.heightR(4); err != nil {
		t.Errorf("HeightR at II=RecMII should converge: %v", err)
	}
}

// TestHeightRTopologicalForSimpleLoops: for recurrence-free loops the
// HeightR order schedules operations in topological order, the property
// Section 3.2 credits for one-pass scheduling of simple loops.
func TestHeightRTopologicalForSimpleLoops(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p"))
		y := b.Define("fmul", x, b.Invariant("c"))
		z := b.Define("fadd", y, x)
		b.Effect("store", b.Invariant("q"), z)
		b.Effect("brtop")
	})
	p := heightProblem(t, l, m)
	h, err := p.heightR(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range l.Edges {
		if e.Distance != 0 || e.From == e.To {
			continue
		}
		if p.delays[heightEdgeIndex(p, e)] > 0 && h[e.From] <= h[e.To] {
			t.Errorf("edge %d->%d: HeightR %d <= %d violates topological priority",
				e.From, e.To, h[e.From], h[e.To])
		}
	}
}

// heightEdgeIndex finds an edge's index (test helper).
func heightEdgeIndex(p *problem, e ir.Edge) int {
	for i, x := range p.loop.Edges {
		if x == e {
			return i
		}
	}
	return -1
}

// TestLateStartDual: Lstart mirrors Estart over scheduled neighbors.
func TestLateStartDual(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p"))
		y := b.Define("fadd", x, x)
		b.Effect("store", b.Invariant("q"), y)
		b.Effect("brtop")
	})
	opts := DefaultOptions()
	opts.PlaceLate = true
	s, err := ModuloSchedule(l, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(s); err != nil {
		t.Fatal(err)
	}
}

// TestPlaceLateAlwaysValid: the lifetime-sensitive variant must never
// produce an invalid schedule, on any machine.
func TestPlaceLateAlwaysValid(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for _, m := range []*machine.Machine{machine.Cydra5(), machine.Tiny()} {
		for trial := 0; trial < 30; trial++ {
			l := randomLoop(t, m, rng)
			opts := DefaultOptions()
			opts.PlaceLate = true
			s, err := ModuloSchedule(l, m, opts)
			if err != nil {
				t.Fatalf("%s trial %d: %v", m.Name, trial, err)
			}
			if err := Check(s); err != nil {
				t.Fatalf("%s trial %d: %v", m.Name, trial, err)
			}
		}
	}
}

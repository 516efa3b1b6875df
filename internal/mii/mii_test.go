package mii

import (
	"math/rand"
	"testing"
	"testing/quick"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

func buildLoop(t testing.TB, m *machine.Machine, f func(b *ir.Builder)) (*ir.Loop, []int) {
	t.Helper()
	b := ir.NewBuilder("t", m)
	f(b)
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays, err := ir.Delays(l, m, ir.VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	return l, delays
}

func TestResMIICountsMostUsedResource(t *testing.T) {
	m := machine.Tiny() // 1 mem port, 1 ALU, 1 multiplier
	l, _ := buildLoop(t, m, func(b *ir.Builder) {
		p := b.Invariant("p")
		x := b.Define("load", p)
		y := b.Define("load", p)
		z := b.Define("load", p)
		b.Define("fadd", x, y)
		b.Effect("store", p, z)
		b.Effect("brtop")
	})
	res, err := ResMII(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// 3 loads + 1 store on a single memory port.
	if res != 4 {
		t.Errorf("ResMII = %d, want 4", res)
	}
}

func TestResMIIUsesAlternatives(t *testing.T) {
	// Two memory ports: four loads should spread across both.
	m := machine.Generic(machine.DefaultUnitConfig()) // 2 ports
	l, _ := buildLoop(t, m, func(b *ir.Builder) {
		p := b.Invariant("p")
		for i := 0; i < 4; i++ {
			b.Define("load", p)
		}
		b.Effect("brtop")
	})
	res, err := ResMII(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Without spreading over both alternatives the bound would be 4.
	if res != 2 {
		t.Errorf("ResMII = %d, want 2 (4 loads over 2 ports)", res)
	}
}

func TestResMIIDivDominates(t *testing.T) {
	m := machine.Cydra5()
	l, _ := buildLoop(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		b.Define("fdiv", a, a)
		b.Effect("brtop")
	})
	res, err := ResMII(l, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	// fdiv occupies a multiplier stage for latency-2 cycles.
	if res != machine.Cydra5DivLatency-2 {
		t.Errorf("ResMII = %d, want %d", res, machine.Cydra5DivLatency-2)
	}
}

func TestRecMIISimpleAccumulator(t *testing.T) {
	m := machine.Cydra5() // fadd latency 4
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(1), b.Invariant("x"))
		b.Effect("brtop")
	})
	rec, err := ExactRecMII(l, delays, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 4 {
		t.Errorf("RecMII = %d, want 4 (fadd latency)", rec)
	}
}

func TestRecMIIDistanceDividesDelay(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(4), b.Invariant("x"))
		b.Effect("brtop")
	})
	rec, err := ExactRecMII(l, delays, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 1 {
		t.Errorf("RecMII = %d, want ceil(4/4) = 1", rec)
	}
}

func TestRecMIITwoOpCircuit(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		t1 := b.Define("fmul", s.Back(1), b.Invariant("c")) // latency 5
		b.DefineAs(s, "fadd", t1, b.Invariant("y"))         // latency 4
		b.Effect("brtop")
	})
	rec, err := ExactRecMII(l, delays, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rec != 9 {
		t.Errorf("RecMII = %d, want 9 (5+4 around a distance-1 circuit)", rec)
	}
}

func TestRecMIIZeroDistanceCycleRejected(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		x := b.Define("fadd", b.Invariant("a"), b.Invariant("b"))
		y := b.Define("fadd", x, b.Invariant("c"))
		b.Effect("brtop")
		// Force an illegal zero-distance cycle y -> x.
		b.Dep(b.OpOf(y), b.OpOf(x), ir.Flow, 0)
	})
	if _, err := ExactRecMII(l, delays, nil); err == nil {
		t.Error("zero-distance positive-delay cycle must be rejected")
	}
}

func TestMinDistDiagonalSemantics(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		b.DefineAs(s, "fadd", s.Back(1), b.Invariant("x")) // RecMII 4
		b.Effect("brtop")
	})
	nodes := AllNodes(l)
	if md := ComputeMinDist(l, delays, 3, nodes, nil); !md.PositiveDiagonal() {
		t.Error("II=3 below RecMII=4 should give a positive diagonal")
	}
	md := ComputeMinDist(l, delays, 4, nodes, nil)
	if md.PositiveDiagonal() {
		t.Error("II=4 should be feasible")
	}
	if !md.ZeroDiagonal() {
		t.Error("II=RecMII should have a tight (zero) diagonal entry")
	}
	if md2 := ComputeMinDist(l, delays, 5, nodes, nil); md2.PositiveDiagonal() || md2.ZeroDiagonal() {
		t.Error("II above RecMII should have all-negative diagonal")
	}
}

func TestMinDistPathLongest(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		x := b.Define("load", b.Invariant("p")) // 20
		y := b.Define("fmul", x, x)             // 5
		z := b.Define("fadd", y, y)             // 4
		b.Effect("store", b.Invariant("q"), z)
		b.Effect("brtop")
	})
	md := ComputeMinDist(l, delays, 10, AllNodes(l), nil)
	// START->STOP is at least the critical path 20+5+4+store latency.
	if got := md.At(l.Start(), l.Stop()); got < 29 {
		t.Errorf("MinDist[START,STOP] = %d, want >= 29", got)
	}
	if md.At(l.Stop(), l.Start()) != NegInf {
		t.Error("no path STOP->START expected")
	}
}

func TestMIIMaxOfBounds(t *testing.T) {
	m := machine.Cydra5()
	// Resource-bound loop: many independent fp adds (shared source buses).
	l1, d1 := buildLoop(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		for i := 0; i < 10; i++ {
			b.Define("fadd", a, a)
		}
		b.Effect("brtop")
	})
	r1, err := Compute(l1, m, d1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MII != r1.ResMII || r1.ResMII < 10 {
		t.Errorf("resource-bound loop: MII=%d ResMII=%d", r1.MII, r1.ResMII)
	}

	// Recurrence-bound loop: long dependence circuit, few resources.
	l2, d2 := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		t1 := b.Define("fmul", s.Back(1), b.Invariant("c"))
		t2 := b.Define("fmul", t1, b.Invariant("d"))
		b.DefineAs(s, "fadd", t2, b.Invariant("y"))
		b.Effect("brtop")
	})
	r2, err := Compute(l2, m, d2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r2.MII <= r2.ResMII {
		t.Errorf("recurrence-bound loop: MII=%d should exceed ResMII=%d", r2.MII, r2.ResMII)
	}
	if r2.MII != 14 { // 5+5+4 around the circuit
		t.Errorf("MII = %d, want 14", r2.MII)
	}
}

func TestSCCStats(t *testing.T) {
	m := machine.Cydra5()
	l, d := buildLoop(t, m, func(b *ir.Builder) {
		// one 2-op circuit + one accumulator + independents
		s := b.Future()
		t1 := b.Define("fmul", s.Back(1), b.Invariant("c"))
		b.DefineAs(s, "fadd", t1, b.Invariant("y"))
		acc := b.Future()
		b.DefineAs(acc, "fadd", acc.Back(1), b.Invariant("z"))
		b.Define("fadd", b.Invariant("a"), b.Invariant("b"))
		b.Effect("brtop")
	})
	r, err := Compute(l, m, d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NonTrivialSCCs) != 1 {
		t.Errorf("non-trivial SCCs = %d, want 1", len(r.NonTrivialSCCs))
	}
	if len(r.SCCSizes) != 4 { // the 2-op circuit + singletons acc, indep, brtop
		t.Errorf("SCC count = %d (%v), want 4", len(r.SCCSizes), r.SCCSizes)
	}
}

func TestCircuitsCrossChecksMinDist(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		l, delays := randomRecurrentLoop(t, m, rng)
		exact, err := ExactRecMII(l, delays, nil)
		if err != nil {
			t.Fatal(err)
		}
		circ, ok, err := RecMIIByCircuits(l, delays, 200000)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			continue // truncated enumeration; skip
		}
		if circ != exact {
			t.Errorf("trial %d: circuits RecMII %d != MinDist RecMII %d\n%s", trial, circ, exact, l)
		}
	}
}

// randomRecurrentLoop builds a loop with random recurrences and DAG ops.
func randomRecurrentLoop(t testing.TB, m *machine.Machine, rng *rand.Rand) (*ir.Loop, []int) {
	t.Helper()
	b := ir.NewBuilder("rand", m)
	var vals []ir.Value
	pick := func() ir.Value {
		if len(vals) == 0 || rng.Float64() < 0.3 {
			return b.Invariant("inv")
		}
		return vals[rng.Intn(len(vals))]
	}
	ops := []string{"fadd", "fmul", "add", "load"}
	nrec := 1 + rng.Intn(2)
	for r := 0; r < nrec; r++ {
		head := b.Future()
		ln := 1 + rng.Intn(3)
		dist := 1 + rng.Intn(3)
		prev := head.Back(dist)
		for i := 0; i < ln; i++ {
			opc := ops[rng.Intn(3)]
			var v ir.Value
			if i == ln-1 {
				v = b.DefineAs(head, opc, prev, pick())
			} else {
				v = b.Define(opc, prev, pick())
			}
			vals = append(vals, v)
			prev = v
		}
	}
	for i := rng.Intn(5); i > 0; i-- {
		vals = append(vals, b.Define(ops[rng.Intn(len(ops))], pick(), pick()))
	}
	b.Effect("brtop")
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	delays, err := ir.Delays(l, m, ir.VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	return l, delays
}

// Property: feasibility is monotone in II, the production MII is
// max(ResMII, RecMII') with RecMII' never probed below ResMII, and the
// exact RecMII never exceeds the production MII.
func TestMIIMonotoneProperty(t *testing.T) {
	m := machine.Cydra5()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		l, delays := randomRecurrentLoop(t, m, rng)
		res, err := ResMII(l, m, nil)
		if err != nil {
			return false
		}
		prod, err := RecurrenceMII(l, delays, res, nil)
		if err != nil {
			return false
		}
		exact, err := ExactRecMII(l, delays, nil)
		if err != nil {
			return false
		}
		if prod < res || exact > prod {
			return false
		}
		if max(res, exact) != prod {
			return false
		}
		// Monotone: any II >= exact RecMII has no positive diagonal.
		nodes := AllNodes(l)
		for ii := exact; ii < exact+3; ii++ {
			if ComputeMinDist(l, delays, ii, nodes, nil).PositiveDiagonal() {
				return false
			}
		}
		if exact > 1 {
			if !ComputeMinDist(l, delays, exact-1, nodes, nil).PositiveDiagonal() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestWholeGraphAgreesWithPerSCC(t *testing.T) {
	m := machine.Cydra5()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		l, delays := randomRecurrentLoop(t, m, rng)
		a, err := RecurrenceMII(l, delays, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RecurrenceMIIWholeGraph(l, delays, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("trial %d: per-SCC %d != whole-graph %d", trial, a, b)
		}
	}
}

func TestCountersAccumulate(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		s := b.Future()
		t1 := b.Define("fmul", s.Back(1), b.Invariant("c"))
		b.DefineAs(s, "fadd", t1, b.Invariant("y"))
		b.Effect("brtop")
	})
	var c Counters
	if _, err := Compute(l, m, delays, &c); err != nil {
		t.Fatal(err)
	}
	if c.MinDistCalls == 0 || c.MinDistInner == 0 {
		t.Error("MinDist counters not incremented for a recurrence-bound loop")
	}
	if c.ResMIIInspections == 0 {
		t.Error("ResMII counters not incremented")
	}
}

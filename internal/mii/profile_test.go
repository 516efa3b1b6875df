package mii

import (
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

func errorsIsCanceled(err error) bool { return errors.Is(err, context.Canceled) }

// parseCorpusLoop parses one regression-corpus case, resolving its
// `; machine: NAME` header. ok is false for cases this package cannot
// parse (they are covered by the stress suite, not here).
func parseCorpusLoop(t *testing.T, src string) (*ir.Loop, []int, bool) {
	t.Helper()
	m := machine.Cydra5()
	for _, line := range strings.Split(src, "\n") {
		rest := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), ";"))
		if !strings.HasPrefix(rest, "machine:") {
			continue
		}
		switch strings.TrimSpace(strings.TrimPrefix(rest, "machine:")) {
		case "generic":
			m = machine.Generic(machine.DefaultUnitConfig())
		case "tiny":
			m = machine.Tiny()
		}
		break
	}
	l, err := looplang.Parse(src, m)
	if err != nil {
		return nil, nil, false
	}
	delays, err := ir.Delays(l, m, ir.VLIWDelays)
	if err != nil {
		return nil, nil, false
	}
	return l, delays, true
}

// checkProfileAllIIs pins the load-bearing exactness claim of the
// cross-II factoring: for the given node set, the profile evaluation must
// equal the scalar in-place Floyd-Warshall at EVERY candidate II — not
// just feasible ones. IIs below RecMII put positive-weight circuits in
// the matrix, where in-place relaxation is order-sensitive; the profile
// is built with the identical operation sequence, so it must agree there
// too, bit for bit.
func checkProfileAllIIs(t *testing.T, l *ir.Loop, delays []int, nodes []int) {
	t.Helper()
	prof := BuildProfile(l, delays, nodes, nil)
	if !prof.OK() {
		t.Fatalf("loop %s: profile hit the coefficient cap on %d nodes", l.Name, len(nodes))
	}
	ws := &Scratch{}
	maxII := maxIIBound(delays) + 2
	for ii := 1; ii <= maxII; ii++ {
		want := ComputeMinDist(l, delays, ii, nodes, nil)
		got := prof.Eval(ws, ii, nil)
		for _, r := range nodes {
			for _, c := range nodes {
				if g, w := got.At(r, c), want.At(r, c); g != w {
					t.Fatalf("loop %s: II=%d: MinDist[%d][%d]: profile %d, Floyd-Warshall %d",
						l.Name, ii, r, c, g, w)
				}
			}
		}
		// Diagonal must agree with the full-matrix feasibility reading.
		wantPos, wantZero := false, false
		for _, v := range nodes {
			switch d := want.At(v, v); {
			case d > 0:
				wantPos = true
			case d == 0:
				wantZero = true
			}
		}
		gotPos, gotZero := prof.Diagonal(ii, nil)
		if gotPos != wantPos || (!wantPos && gotZero != wantZero) {
			t.Fatalf("loop %s: II=%d: Diagonal = (%v,%v), scalar diagonal = (%v,%v)",
				l.Name, ii, gotPos, gotZero, wantPos, wantZero)
		}
	}
}

// sccNodeSets returns the per-SCC node sets searchSCC feeds to the
// MinDist machinery (only non-trivial ones), plus the whole graph.
func sccNodeSets(l *ir.Loop) [][]int {
	sets := [][]int{AllNodes(l)}
	for _, scc := range NewDeps(l).SCCs {
		if len(scc) > 1 {
			sets = append(sets, scc)
		}
	}
	return sets
}

func TestProfileMatchesFloydWarshall(t *testing.T) {
	m := machine.Cydra5()

	t.Run("hand-built", func(t *testing.T) {
		cases := []struct {
			name string
			body func(b *ir.Builder)
		}{
			{"simple-recurrence", func(b *ir.Builder) {
				f := b.Future()
				a := b.Define("fadd", f.Back(1), f.Back(1))
				b.DefineAs(f, "fmul", a, a)
				b.Effect("brtop")
			}},
			{"two-distance-circuits", func(b *ir.Builder) {
				// Two interlocking recurrences at distances 1 and 2 so
				// different coefficients win at different IIs.
				f := b.Future()
				g := b.Future()
				x := b.Define("fadd", f.Back(1), g.Back(2))
				b.DefineAs(f, "fmul", x, x)
				b.DefineAs(g, "fadd", x, f.Back(1))
				b.Effect("brtop")
			}},
			{"parallel-edges", func(b *ir.Builder) {
				// Parallel dependences between the same op pair with
				// different (distance, delay) combinations: the scalar
				// matrix keeps only the per-II max, the profile must
				// carry both and agree at every II.
				p := b.Invariant("p")
				s := b.Define("load", p)
				d := b.Define("fadd", s, s)
				st := b.Effect("store", p, d)
				b.Dep(st, b.OpOf(s), ir.Mem, 1)
				b.DepDelay(st, b.OpOf(s), ir.Mem, 3, 11)
				b.Effect("brtop")
			}},
			{"long-chain-recurrence", func(b *ir.Builder) {
				f := b.Future()
				prev := ir.Value(f.Back(2))
				for i := 0; i < 6; i++ {
					prev = b.Define("fadd", prev, prev)
				}
				b.DefineAs(f, "fadd", prev, prev)
				b.Effect("brtop")
			}},
			{"acyclic", func(b *ir.Builder) {
				p := b.Invariant("p")
				x := b.Define("load", p)
				y := b.Define("fmul", x, x)
				b.Effect("store", p, y)
				b.Effect("brtop")
			}},
		}
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				l, delays := buildLoop(t, m, tc.body)
				for _, nodes := range sccNodeSets(l) {
					checkProfileAllIIs(t, l, delays, nodes)
				}
			})
		}
	})

	t.Run("loopgen", func(t *testing.T) {
		n := 80
		if testing.Short() {
			n = 15
		}
		gm := machine.Generic(machine.DefaultUnitConfig())
		loops, err := loopgen.Generate(loopgen.Config{Seed: 407, N: n, MaxOps: 28}, gm)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			delays, err := ir.Delays(l, gm, ir.VLIWDelays)
			if err != nil {
				t.Fatal(err)
			}
			for _, nodes := range sccNodeSets(l) {
				checkProfileAllIIs(t, l, delays, nodes)
			}
		}
	})
}

// TestProfileMatchesCorpus replays the checked-in regression corpus
// through the same differential check.
func TestProfileMatchesCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regressions", "*.loop"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no regression corpus")
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		l, delays, ok := parseCorpusLoop(t, string(src))
		if !ok {
			continue
		}
		t.Run(filepath.Base(file), func(t *testing.T) {
			for _, nodes := range sccNodeSets(l) {
				checkProfileAllIIs(t, l, delays, nodes)
			}
		})
	}
}

// TestProfileCoefficientCap drives the frontier size past
// maxProfileCoeffs and checks the build degrades to the scalar fallback
// instead of returning a truncated (wrong) profile.
func TestProfileCoefficientCap(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		// A chain where every hop offers two non-dominating options,
		// (latency, dist 0) and (37, dist 1): over k hops the Pareto
		// frontier of (0 -> k) holds k+1 coefficients.
		p := b.Invariant("p")
		prev := b.Define("fadd", p, p)
		for i := 0; i < maxProfileCoeffs+8; i++ {
			next := b.Define("fadd", prev, prev)
			b.DepDelay(b.OpOf(prev), b.OpOf(next), ir.Mem, 1, 37)
			prev = next
		}
		b.Effect("brtop")
	})
	prof := BuildProfile(l, delays, AllNodes(l), nil)
	if prof.OK() {
		t.Fatalf("profile unexpectedly fit under the cap (%d)", maxProfileCoeffs)
	}
	if prof.sets != nil {
		t.Fatal("aborted profile retains coefficient sets")
	}
}

// TestEvalCoeffNoWrap pins the NegInf overflow guard: a pathological
// dist*II product must saturate to NegInf, never wrap past it into a
// huge positive "path length". (NegInf = math.MinInt/4 leaves headroom
// for summing two path lengths, and this guard is what keeps profile
// evaluation inside that envelope.)
func TestEvalCoeffNoWrap(t *testing.T) {
	cases := []struct {
		name string
		c    Coeff
		ii   int
		want int
	}{
		{"wrapping-product", Coeff{Delay: 5, Dist: 3}, math.MaxInt / 2, NegInf},
		{"exact-boundary", Coeff{Delay: 0, Dist: 1}, -NegInf, NegInf},
		{"just-inside", Coeff{Delay: 0, Dist: 1}, -NegInf - 1, NegInf + 1},
		{"huge-dist", Coeff{Delay: 100, Dist: math.MaxInt / 2}, 3, NegInf},
		{"zero-dist-ignores-ii", Coeff{Delay: 7, Dist: 0}, math.MaxInt, 7},
		{"ordinary", Coeff{Delay: 9, Dist: 2}, 4, 1},
	}
	for _, tc := range cases {
		if got := evalCoeff(tc.c, tc.ii); got != tc.want {
			t.Errorf("%s: evalCoeff(%+v, %d) = %d, want %d", tc.name, tc.c, tc.ii, got, tc.want)
		}
	}
	// Property: for any in-range coefficient and nonnegative II the result
	// never exceeds Delay and never dips below NegInf (no wraparound in
	// either direction).
	for _, c := range []Coeff{{0, 1}, {50, 7}, {1 << 30, 3}, {3, 1 << 40}} {
		for _, ii := range []int{0, 1, 1 << 20, 1 << 45, math.MaxInt / 2, math.MaxInt} {
			got := evalCoeff(c, ii)
			if got > c.Delay || got < NegInf {
				t.Errorf("evalCoeff(%+v, %d) = %d escapes [NegInf, Delay]", c, ii, got)
			}
		}
	}
}

// TestRecMIIByCircuitsContextCancel checks that -timeout style
// cancellation reaches the circuit enumeration (satellite: context
// threading through RecMIIByCircuits).
func TestRecMIIByCircuitsContextCancel(t *testing.T) {
	m := machine.Cydra5()
	l, delays := buildLoop(t, m, func(b *ir.Builder) {
		f := b.Future()
		a := b.Define("fadd", f.Back(1), f.Back(2))
		x := b.Define("fmul", a, f.Back(1))
		b.DefineAs(f, "fadd", x, a)
		b.Effect("brtop")
	})

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := RecMIIByCircuitsContext(ctx, l, delays, 0); err == nil {
		t.Fatal("canceled context did not abort circuit enumeration")
	} else if !errorsIsCanceled(err) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}

	// A live context must leave the result identical to the nil-ctx path.
	want, wantExact, err := RecMIIByCircuits(l, delays, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, gotExact, err := RecMIIByCircuitsContext(context.Background(), l, delays, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want || gotExact != wantExact {
		t.Fatalf("ctx path = (%d,%v), nil path = (%d,%v)", got, gotExact, want, wantExact)
	}
}

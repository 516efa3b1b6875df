package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"modsched/internal/ir"
	"modsched/internal/loopgen"
	"modsched/internal/machine"
)

// mustPanicInvariant runs f and asserts it panics with an
// InvariantViolation mentioning every wanted substring.
func mustPanicInvariant(t *testing.T, want []string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		v, ok := r.(InvariantViolation)
		if !ok {
			t.Fatalf("panic value is %T, want InvariantViolation", r)
		}
		for _, w := range want {
			if !strings.Contains(string(v), w) {
				t.Errorf("panic %q does not mention %q", string(v), w)
			}
		}
	}()
	f()
}

// TestMRTPlacePanicIsTyped: placing over an occupied cell is a scheduler
// bug; the panic must be the typed InvariantViolation (so the API boundary
// can recognize and contain it) and must name the colliding operations.
func TestMRTPlacePanicIsTyped(t *testing.T) {
	m := newMRT(4, 1)
	tab := machine.MustTable(machine.ResourceUse{Resource: 0, Time: 0})
	m.place(3, 0, tab)
	mustPanicInvariant(t, []string{"occupied", "op 3"}, func() {
		m.place(8, 4, tab) // same modulo slot as op 3
	})
}

// TestMRTRemovePanicIsTyped: removing a reservation the op does not hold
// is likewise a typed invariant violation.
func TestMRTRemovePanicIsTyped(t *testing.T) {
	m := newMRT(4, 1)
	tab := machine.MustTable(machine.ResourceUse{Resource: 0, Time: 0})
	m.place(3, 0, tab)
	mustPanicInvariant(t, []string{"remove"}, func() {
		m.remove(5, 0, tab) // held by op 3, not 5
	})
}

// gapMachine builds the machine whose "gap" opcode self-collides at II=5.
func gapMachine() *machine.Machine {
	m := machine.New("gapmachine")
	r0 := m.AddResource("unit")
	m.MustAddOpcode(&machine.Opcode{Name: "gap", Latency: 6, Alternatives: []machine.Alternative{{
		Name: "u",
		Table: machine.MustTable(
			machine.ResourceUse{Resource: r0, Time: 0},
			machine.ResourceUse{Resource: r0, Time: 5},
		),
	}}})
	m.MustAddOpcode(&machine.Opcode{Name: "START", Latency: 0,
		Alternatives: []machine.Alternative{{Name: "none"}}})
	m.MustAddOpcode(&machine.Opcode{Name: "STOP", Latency: 0,
		Alternatives: []machine.Alternative{{Name: "none"}}})
	return m
}

// TestForcedAlternativePanicIsTyped: forcedAlternative on an operation
// with no self-consistent alternative at the current II (a case the II
// search is supposed to have filtered out) must raise the typed panic.
func TestForcedAlternativePanicIsTyped(t *testing.T) {
	m := gapMachine()
	b := ir.NewBuilder("gaploop", m)
	b.Define("gap", b.Invariant("a"))
	l, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := newProblem(nil, l, m, DefaultOptions(), new(scratch))
	if err != nil {
		t.Fatal(err)
	}
	s := p.scratch.newState(p, 5) // gap's table self-collides at II=5
	var gapIdx int
	for i, op := range l.Ops {
		if op.Opcode == "gap" {
			gapIdx = i
		}
	}
	mustPanicInvariant(t, []string{"no self-consistent alternative", "II=5"}, func() {
		s.forcedAlternative(gapIdx, 0)
	})
}

// TestCorruptedStateIsContained corrupts scheduler-internal state through
// the test hook and proves the resulting panic is converted into an
// *InternalError (wrapping ErrInternal) rather than escaping: the
// "state-corruption" acceptance test for panic containment.
func TestCorruptedStateIsContained(t *testing.T) {
	corruptions := map[string]func(*state){
		"truncated times":    func(s *state) { s.times = s.times[:1] },
		"truncated alts":     func(s *state) { s.alts = nil },
		"poisoned MRT shape": func(s *state) { s.mrt = newMRT(1, 0) },
	}
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		x := b.Define("add", a, a)
		b.Define("mul", x, a)
		b.Effect("brtop")
	})
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			testHookPreAttempt = corrupt
			defer func() { testHookPreAttempt = nil }()
			s, err := ModuloSchedule(l, m, DefaultOptions())
			if err == nil {
				t.Fatalf("corrupted scheduler returned a schedule: II=%d", s.II)
			}
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("error does not wrap ErrInternal: %v", err)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error is not *InternalError: %T", err)
			}
			if ie.Loop != l.Name {
				t.Errorf("InternalError.Loop = %q, want %q", ie.Loop, l.Name)
			}
			if ie.Panic == nil {
				t.Error("InternalError.Panic is nil")
			}
			if len(ie.Stack) == 0 {
				t.Error("InternalError.Stack is empty")
			}
		})
	}
}

// TestInvariantPanicIsContained: a typed InvariantViolation raised inside
// an attempt surfaces as *InternalError carrying the II it happened at.
func TestInvariantPanicIsContained(t *testing.T) {
	testHookPreAttempt = func(s *state) {
		panic(InvariantViolation("core: injected invariant violation"))
	}
	defer func() { testHookPreAttempt = nil }()
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		b.Define("add", b.Invariant("a"), b.Invariant("a"))
		b.Effect("brtop")
	})
	_, err := ModuloSchedule(l, m, DefaultOptions())
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("error is not *InternalError: %v", err)
	}
	if ie.II < 1 {
		t.Errorf("InternalError.II = %d, want the attempted II", ie.II)
	}
	if !strings.Contains(ie.Error(), "injected invariant violation") {
		t.Errorf("message lost the panic detail: %v", ie)
	}
}

// TestMaxIIExhaustion: capping MaxII below MII means no attempt can run;
// the failure must be a *NoScheduleError wrapping ErrNoSchedule with the
// search range recorded and no budget claim.
func TestMaxIIExhaustion(t *testing.T) {
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		x := b.Future()
		b.DefineAs(x, "fdiv", x.Back(1), a) // long-latency recurrence: big MII
		b.Effect("brtop")
	})
	opts := DefaultOptions()
	opts.MaxII = 2
	for _, schedule := range map[string]func(*ir.Loop, *machine.Machine, Options) (*Schedule, error){
		"iterative": ModuloSchedule,
		"slack":     ModuloScheduleSlack,
	} {
		_, err := schedule(l, m, opts)
		if err == nil {
			t.Fatal("scheduled below MII")
		}
		if !errors.Is(err, ErrNoSchedule) {
			t.Fatalf("error does not wrap ErrNoSchedule: %v", err)
		}
		if errors.Is(err, ErrBudgetExhausted) {
			t.Errorf("budget was never the limiting factor: %v", err)
		}
		var nse *NoScheduleError
		if !errors.As(err, &nse) {
			t.Fatalf("error is not *NoScheduleError: %T", err)
		}
		if nse.MaxII != 2 {
			t.Errorf("MaxII = %d, want 2", nse.MaxII)
		}
	}
}

// TestBudgetExhaustion: a loop known to need II = MII+1 under the paper's
// budget (synth0015 of the default corpus), capped at MaxII = MII, must
// fail with BudgetExhausted set — the budget, not proven infeasibility,
// was the limit.
func TestBudgetExhaustion(t *testing.T) {
	m := machine.Cydra5()
	cfg := loopgen.DefaultConfig()
	cfg.N = 16
	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	l := loops[15]
	ref, err := ModuloSchedule(l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if ref.II <= ref.MII {
		t.Fatalf("corpus drifted: loop schedules at MII=%d; pick another budget-bound loop", ref.MII)
	}
	opts := DefaultOptions()
	opts.MaxII = ref.MII // no II headroom: the budgeted attempt is all there is
	_, err = ModuloSchedule(l, m, opts)
	if err == nil {
		t.Fatal("scheduled at MII despite reference needing MII+1")
	}
	if !errors.Is(err, ErrNoSchedule) || !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("want ErrNoSchedule+ErrBudgetExhausted, got: %v", err)
	}
	var nse *NoScheduleError
	if !errors.As(err, &nse) {
		t.Fatalf("error is not *NoScheduleError: %T", err)
	}
	if !nse.BudgetExhausted {
		t.Error("BudgetExhausted flag not set")
	}
	if nse.Attempts < 1 {
		t.Errorf("Attempts = %d, want at least 1", nse.Attempts)
	}
}

// TestContextCancellation: a pre-cancelled context aborts promptly at
// every entry point, wrapping context.Canceled.
func TestContextCancellation(t *testing.T) {
	m := machine.Cydra5()
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		for i := 0; i < 8; i++ {
			b.Define("fadd", a, a)
		}
		b.Effect("brtop")
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, call := range map[string]func() error{
		"iterative": func() error { _, err := ModuloScheduleContext(ctx, l, m, DefaultOptions()); return err },
		"slack":     func() error { _, err := ModuloScheduleSlackContext(ctx, l, m, DefaultOptions()); return err },
		"besteffort": func() error {
			_, _, err := ModuloScheduleBestEffort(ctx, l, m, DefaultOptions())
			return err
		},
	} {
		err := call()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: error does not wrap context.Canceled: %v", name, err)
		}
	}
}

// TestBestEffortDegradesToAcyclic: forcing MaxII below MII starves both
// real schedulers, so the acyclic fallback must deliver — and its
// degenerate schedule must pass Check.
func TestBestEffortDegradesToAcyclic(t *testing.T) {
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		x := b.Future()
		b.DefineAs(x, "fdiv", x.Back(1), a)
		b.Effect("brtop")
	})
	opts := DefaultOptions()
	opts.MaxII = 1
	s, deg, err := ModuloScheduleBestEffort(nil, l, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Stage != StageAcyclic || !deg.Degraded() {
		t.Fatalf("stage = %q, want %q (report: %s)", deg.Stage, StageAcyclic, deg)
	}
	if len(deg.Failures) != 2 {
		t.Errorf("failures = %d, want 2 (iterative and slack)", len(deg.Failures))
	}
	for _, f := range deg.Failures {
		if !errors.Is(f.Err, ErrNoSchedule) {
			t.Errorf("stage %s failed with %v, want ErrNoSchedule", f.Stage, f.Err)
		}
	}
	if err := Check(s); err != nil {
		t.Errorf("degenerate schedule fails verification: %v", err)
	}
	if s.II < s.MII {
		t.Errorf("II=%d below MII=%d", s.II, s.MII)
	}
}

// TestBestEffortPrefersIterative: on an ordinary loop the first stage
// wins and the report is clean.
func TestBestEffortPrefersIterative(t *testing.T) {
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		a := b.Invariant("a")
		x := b.Define("add", a, a)
		b.Define("store", x, a)
		b.Effect("brtop")
	})
	s, deg, err := ModuloScheduleBestEffort(nil, l, m, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if deg.Degraded() || deg.Stage != StageIterative || len(deg.Failures) != 0 {
		t.Errorf("unexpected degradation: %s", deg)
	}
	if err := Check(s); err != nil {
		t.Error(err)
	}
}

// TestNilInputs: nil loop and nil machine come back as the validation
// sentinels, not panics.
func TestNilInputs(t *testing.T) {
	m := machine.Tiny()
	l := build(t, m, func(b *ir.Builder) {
		b.Define("add", b.Invariant("a"), b.Invariant("a"))
		b.Effect("brtop")
	})
	if _, err := ModuloSchedule(nil, m, DefaultOptions()); !errors.Is(err, ErrInvalidLoop) {
		t.Errorf("nil loop: %v", err)
	}
	if _, err := ModuloSchedule(l, nil, DefaultOptions()); !errors.Is(err, ErrInvalidMachine) {
		t.Errorf("nil machine: %v", err)
	}
	if _, _, err := ModuloScheduleBestEffort(nil, nil, m, DefaultOptions()); !errors.Is(err, ErrInvalidLoop) {
		t.Errorf("best-effort nil loop: %v", err)
	}
}

package mii_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/kernels"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// checkDepsAgainstReference compares the shared-analysis bounds with the
// per-call-graph reference (reference_test.go): identical ResMII, MII,
// exact RecMII and effort counters, the same real-op SCC sizes as a
// multiset, and the same number of non-trivial SCCs. When the loop
// schedules, the scheduler's MII and Counters.MII must match too.
func checkDepsAgainstReference(t *testing.T, l *ir.Loop, m *machine.Machine) {
	t.Helper()
	delays, err := ir.Delays(l, m, ir.VLIWDelays)
	if err != nil {
		t.Fatal(err)
	}
	var got, want mii.Counters
	res, err := mii.Compute(l, m, delays, &got)
	ref, refErr := mii.RefCompute(l, m, delays, &want)
	if err != nil || refErr != nil {
		if err == nil || refErr == nil || err.Error() != refErr.Error() {
			t.Fatalf("loop %s: Compute error %v, reference error %v", l.Name, err, refErr)
		}
		return
	}
	if res.ResMII != ref.ResMII || res.MII != ref.MII {
		t.Errorf("loop %s: ResMII/MII = %d/%d, reference %d/%d", l.Name, res.ResMII, res.MII, ref.ResMII, ref.MII)
	}
	if got != want {
		t.Errorf("loop %s: counters %+v, reference %+v", l.Name, got, want)
	}
	gotSizes, wantSizes := slices.Clone(res.SCCSizes), slices.Clone(ref.SCCSizes)
	slices.Sort(gotSizes)
	slices.Sort(wantSizes)
	if !slices.Equal(gotSizes, wantSizes) {
		t.Errorf("loop %s: SCC sizes %v, reference %v", l.Name, gotSizes, wantSizes)
	}
	if len(res.NonTrivialSCCs) != len(ref.NonTrivialSCCs) {
		t.Errorf("loop %s: %d non-trivial SCCs, reference %d", l.Name, len(res.NonTrivialSCCs), len(ref.NonTrivialSCCs))
	}

	var gotExact, wantExact mii.Counters
	exact, err := mii.ExactRecMII(l, delays, &gotExact)
	refExact, refErr := mii.RefRecurrenceMII(l, delays, 1, &wantExact)
	if err != nil || refErr != nil || exact != refExact || gotExact != wantExact {
		t.Errorf("loop %s: exact RecMII %d (%v, %+v), reference %d (%v, %+v)",
			l.Name, exact, err, gotExact, refExact, refErr, wantExact)
	}

	sched, err := core.ModuloSchedule(l, m, core.DefaultOptions())
	if err != nil {
		return
	}
	if sched.MII != ref.MII || sched.Stats.MII != want {
		t.Errorf("loop %s: scheduler MII %d counters %+v, reference %d %+v",
			l.Name, sched.MII, sched.Stats.MII, ref.MII, want)
	}
}

func TestDepsMatchesReference(t *testing.T) {
	t.Run("livermore", func(t *testing.T) {
		m := machine.Cydra5()
		loops, err := kernels.All(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(loops) != 27 {
			t.Fatalf("%d Livermore kernels, want 27", len(loops))
		}
		for _, l := range loops {
			checkDepsAgainstReference(t, l, m)
		}
	})

	t.Run("zoo", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "machines", "*.mach"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no machine zoo: %v", err)
		}
		for _, file := range files {
			m, err := machine.LoadMachineFile(file)
			if err != nil {
				t.Fatal(err)
			}
			loops, err := loopgen.Generate(loopgen.Config{Seed: 13, N: 40}, m)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			for _, l := range loops {
				checkDepsAgainstReference(t, l, m)
			}
		}
	})

	t.Run("regressions", func(t *testing.T) {
		files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "regressions", "*.loop"))
		if err != nil || len(files) == 0 {
			t.Fatalf("no regression corpus: %v", err)
		}
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			m := machine.Cydra5()
			if strings.Contains(string(src), "; machine: generic") {
				m = machine.Generic(machine.DefaultUnitConfig())
			} else if strings.Contains(string(src), "; machine: tiny") {
				m = machine.Tiny()
			}
			l, err := looplang.Parse(string(src), m)
			if err != nil {
				t.Fatalf("%s: %v", file, err)
			}
			checkDepsAgainstReference(t, l, m)
		}
	})
}

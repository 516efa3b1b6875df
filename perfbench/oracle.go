package main

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"modsched"
	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/mii"
	"modsched/internal/stress"
	"modsched/internal/vliw"
)

// This file holds the output oracle and the schedule-quality measures.
// Both run outside the timed phase.

// loopQuality is one loop's contribution to the quality metrics.
type loopQuality struct {
	ops, deltaII, steps, rotregs int64
	// execActual and execBound are the paper's execution-time measure
	// at the achieved (SL, II) and at the lower bounds (MinSL, MII).
	execActual, execBound int64
}

// measureQuality computes a loop's quality figures from its schedule
// and kernel. MinSL is the schedule-length bound at the achieved II:
// the larger of MinDist[START][STOP] and the acyclic list schedule, as
// in the paper's Figure 6.
func measureQuality(s *core.Schedule, k *codegen.Kernel) (loopQuality, error) {
	l := s.Loop
	q := loopQuality{
		ops:     int64(l.NumRealOps() + 2),
		deltaII: int64(s.II - s.MII),
		steps:   s.Stats.SchedSteps,
		rotregs: int64(k.Alloc.Size),
	}
	if l.LoopFreq <= 0 {
		return q, nil
	}
	delays, err := ir.Delays(l, s.Machine, s.Options.DelayModel)
	if err != nil {
		return q, err
	}
	minSL := mii.ComputeMinDist(l, delays, s.II, mii.AllNodes(l), nil).At(l.Start(), l.Stop())
	ls, err := listsched.Schedule(l, s.Machine, delays)
	if err != nil {
		return q, err
	}
	minSL = max(minSL, ls.Length, 1)
	exec := func(sl, ii int) int64 { return l.EntryFreq*int64(sl) + (l.LoopFreq-l.EntryFreq)*int64(ii) }
	q.execActual = exec(s.Length, s.II)
	q.execBound = exec(minSL, s.MII)
	return q, nil
}

// qualityTotals folds loopQuality values into the four quality
// metrics.
type qualityTotals struct {
	loops                        int
	ops, deltaII, steps, rotregs int64
	execActual, execBound        int64
}

func (t *qualityTotals) add(q loopQuality) {
	t.loops++
	t.ops += q.ops
	t.deltaII += q.deltaII
	t.steps += q.steps
	t.rotregs += q.rotregs
	t.execActual += q.execActual
	t.execBound += q.execBound
}

func (t *qualityTotals) report(r *report) {
	n := float64(max(t.loops, 1))
	r.set("delta_ii_per_loop", float64(t.deltaII)/n)
	r.set("rotregs_per_loop", float64(t.rotregs)/n)
	r.set("codegen.rotregs_per_loop", float64(t.rotregs)/n)
	if t.ops > 0 {
		r.set("steps_per_op", float64(t.steps)/float64(t.ops))
	}
	if t.execBound > 0 {
		r.set("dilation_pct", 100*(float64(t.execActual)/float64(t.execBound)-1))
	}
}

// simulate runs the kernel on the cycle-accurate simulator and compares
// it with the sequential reference interpreter, with live-ins built as
// the stress harness builds them. It returns "" on agreement.
func simulate(k *codegen.Kernel, s *core.Schedule, trips int64) string {
	ref, err := modsched.RunReference(s.Loop, stress.Spec(s.Loop, trips))
	if err != nil {
		return fmt.Sprintf("reference: %v", err)
	}
	got, err := modsched.RunKernel(k, s.Machine, stress.Spec(s.Loop, trips))
	if err != nil {
		return fmt.Sprintf("simulate: %v", err)
	}
	return diffResults(ref, got)
}

// diffResults describes the first divergence between a simulated run
// and the reference (lowest address, then lowest register), or "".
// Words compare NaN-tolerantly with a tiny relative slack: both sides
// perform the same float operations in the same dataflow order.
func diffResults(ref, got *vliw.Result) string {
	eq := func(a, b vliw.Word) bool {
		return a == b || (math.IsNaN(a) && math.IsNaN(b)) ||
			math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
	}
	addrs := make([]int64, 0, len(ref.Mem)+len(got.Mem))
	for a := range ref.Mem {
		addrs = append(addrs, a)
	}
	for a := range got.Mem {
		if _, ok := ref.Mem[a]; !ok {
			addrs = append(addrs, a)
		}
	}
	slices.Sort(addrs)
	for _, a := range addrs {
		if !eq(ref.Mem[a], got.Mem[a]) {
			return fmt.Sprintf("mem[%d] = %v, reference %v", a, got.Mem[a], ref.Mem[a])
		}
	}
	regs := make([]int, 0, len(ref.Final))
	for r := range ref.Final {
		regs = append(regs, int(r))
	}
	sort.Ints(regs)
	for _, ri := range regs {
		r := ir.Reg(ri)
		gv, ok := got.Final[r]
		if !ok || !eq(ref.Final[r], gv) {
			return fmt.Sprintf("final r%d = %v (present %v), reference %v", r, gv, ok, ref.Final[r])
		}
	}
	return ""
}

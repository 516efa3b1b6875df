package vliw

import (
	"fmt"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/machine"
	"modsched/internal/modvar"
)

// RunFlatAnyTrips executes a loop for an arbitrary trip count under the
// explicit (prologue/kernel/epilogue) schema by preconditioning, the
// standard production-compiler answer to modulo variable expansion's
// divisibility requirement: the remainder iterations
//
//	r = (trips - SC + 1) mod U        (or all of them if trips < SC)
//
// run first as scalar (unpipelined, list-scheduled) code, then the
// pipelined code takes over with the registers' live state threaded
// through. The scalar portion's semantics come from the reference
// interpreter and its cycle cost is charged as r times the acyclic list
// schedule length — the list schedule itself is machine-validated by the
// listsched tests.
func RunFlatAnyTrips(l *ir.Loop, m *machine.Machine, sched *core.Schedule, spec RunSpec) (*Result, error) {
	if spec.Trips < 1 {
		return nil, fmt.Errorf("vliw: trips must be >= 1")
	}
	u, err := modvar.PlanUnroll(sched)
	if err != nil {
		return nil, err
	}
	sc := sched.StageCount()

	var remainder int64
	if spec.Trips < int64(sc) {
		remainder = spec.Trips // too short to pipeline at all
	} else {
		remainder = (spec.Trips - int64(sc) + 1) % int64(u)
		if spec.Trips-remainder-int64(sc)+1 < int64(u) {
			// Not even one full unrolled kernel pass remains; run
			// everything scalar.
			remainder = spec.Trips
		}
	}
	pipelined := spec.Trips - remainder

	ls, err := listsched.Schedule(l, m, sched.Delays)
	if err != nil {
		return nil, err
	}

	var scalarCycles int64
	spec2 := spec
	if remainder > 0 {
		pre := spec
		pre.Trips = remainder
		r1, err := RunReference(l, pre)
		if err != nil {
			return nil, err
		}
		scalarCycles = remainder * int64(ls.Length)
		if pipelined == 0 {
			r1.Cycles = scalarCycles
			return r1, nil
		}
		spec2 = RunSpec{
			Init:     make(map[ir.Reg]Word, len(spec.Init)),
			InitHist: make(map[ir.Reg][]Word),
			Mem:      r1.Mem,
			Trips:    pipelined,
		}
		for r, v := range spec.Init {
			spec2.Init[r] = v // invariants (and defaults)
		}
		for r, h := range r1.History {
			spec2.Init[r] = h[0]
			spec2.InitHist[r] = h
		}
	}

	flat, err := modvar.Generate(sched, pipelined)
	if err != nil {
		return nil, err
	}
	r2, err := RunFlat(flat, m, spec2)
	if err != nil {
		return nil, err
	}
	r2.Cycles += scalarCycles
	return r2, nil
}

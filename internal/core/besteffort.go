package core

import (
	"context"
	"fmt"

	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/machine"
)

// Stage names reported by Degradation, in fallback order; the first two
// also name the scheduling algorithm in errors.
const (
	StageIterative = "iterative"
	StageSlack     = "slack"
	StageAcyclic   = "acyclic"
)

// StageFailure records why one stage of the best-effort fallback chain
// failed to produce a schedule.
type StageFailure struct {
	Stage string
	Err   error
}

// Degradation reports how a best-effort compilation was satisfied: which
// stage produced the returned schedule, and why every earlier stage
// failed. A report with Stage == StageIterative and no Failures is the
// non-degraded case.
type Degradation struct {
	// Stage names the pipeline stage that produced the schedule.
	Stage string
	// Failures records the earlier stages' errors, in attempt order.
	Failures []StageFailure
}

// Degraded reports whether a fallback stage (not the paper's iterative
// scheduler) produced the schedule.
func (d *Degradation) Degraded() bool { return d.Stage != StageIterative }

// String renders a one-line-per-stage report.
func (d *Degradation) String() string {
	s := "schedule produced by " + d.Stage + " stage"
	for _, f := range d.Failures {
		s += fmt.Sprintf("; %s failed: %v", f.Stage, f.Err)
	}
	return s
}

// ModuloScheduleBestEffort is the graceful-degradation entry point: it
// tries iterative modulo scheduling, then slack scheduling, and finally
// an acyclic list schedule reinterpreted as a degenerate modulo schedule
// (II = schedule length, no iteration overlap). Every returned schedule
// passes Check. The Degradation report names the stage that succeeded and
// carries the earlier stages' errors.
//
// The stages share one analysis, whose errors (invalid input, a
// zero-distance recurrence) fail the call at once; each stage's Stats
// count it as if the stage ran alone. Cancellation is not degraded
// around: once ctx is done, the chain returns the cancellation error.
func ModuloScheduleBestEffort(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, *Degradation, error) {
	return compile(ctx, l, m, opts, StageIterative, StageSlack, StageAcyclic)
}

// ModuloScheduleAcyclic runs only the final fallback stage: the acyclic
// list schedule of one iteration reinterpreted as a degenerate modulo
// schedule (II = schedule length, no iteration overlap). It exists for
// callers that must deliver *some* verified schedule even after a
// deadline has killed the real schedulers — the stage is deterministic,
// allocation-light, and needs no II search, so it is safe to run without
// a deadline of its own (cmd/msched's -besteffort does exactly that).
// The stress harness also uses it as the differential baseline.
func ModuloScheduleAcyclic(ctx context.Context, l *ir.Loop, m *machine.Machine, opts Options) (*Schedule, error) {
	s, _, err := compile(ctx, l, m, opts, StageAcyclic)
	return s, err
}

// acyclic turns the acyclic list schedule of one iteration into a legal
// (if entirely unpipelined) modulo schedule by choosing an II large
// enough that (a) no reservation wraps around the MRT — so the linear
// reservation table's conflict-freedom carries over verbatim — and (b)
// every inter-iteration dependence edge is satisfied by the II*distance
// term alone. This always succeeds for loops whose distance-0 subgraph is
// acyclic, which is exactly the precondition of list scheduling. The
// schedule reports the problem's real bounds, so the degradation is
// visible as II >> MII. opts is the caller's, reported as given.
func (p *problem) acyclic(opts Options) (sched *Schedule, err error) {
	l := p.loop
	defer RecoverToInternal(l.Name, &err)
	p.newStage()
	ls, err := listsched.Schedule(l, p.mach, p.delays)
	if err != nil {
		return nil, fmt.Errorf("core: loop %s: acyclic fallback: %w", l.Name, err)
	}
	p.counters.SchedSteps = ls.Steps
	p.counters.SchedStepsFinal = ls.Steps

	ii := ls.Length
	if ii < 1 {
		ii = 1
	}
	// (a) No reservation may wrap: II must exceed the last absolute cycle
	// at which any operation holds a resource.
	for i := range l.Ops {
		tab := p.opcode[i].Alternatives[ls.Alts[i]].Table
		if s := ls.Times[i] + tab.Span(); s > ii {
			ii = s
		}
	}
	// (b) Inter-iteration dependences: II*distance >= t(from)+delay-t(to).
	for ei, e := range l.Edges {
		if e.Distance == 0 {
			continue
		}
		need := ls.Times[e.From] + p.delays[ei] - ls.Times[e.To]
		if need > 0 {
			if r := (need + e.Distance - 1) / e.Distance; r > ii {
				ii = r
			}
		}
	}

	sched = p.schedule(opts, ii, ls.Times, ls.Alts)
	if cerr := Check(sched); cerr != nil {
		return nil, &InternalError{
			Loop: l.Name, II: ii, Counters: p.counters,
			Err: fmt.Errorf("acyclic fallback schedule fails verification: %w", cerr),
		}
	}
	return sched, nil
}

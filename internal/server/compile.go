package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/listsched"
	"modsched/internal/looplang"
	"modsched/internal/machine"
)

// classify maps a compilation error onto the wire kind and HTTP status.
// Precedence mirrors the sentinels' semantics: invalid input beats
// everything (no retry can help), then deadline and budget (a retry with
// more time or budget may succeed, hence 504), then proven infeasibility
// (409 — the request conflicts with the machine model, retrying is
// pointless), and anything else is an internal error.
func classify(err error) (kind string, status int) {
	var pe *looplang.ParseError
	switch {
	case errors.As(err, &pe):
		return KindParse, http.StatusUnprocessableEntity
	case errors.Is(err, core.ErrInvalidLoop), errors.Is(err, core.ErrInvalidMachine):
		return KindInvalid, http.StatusUnprocessableEntity
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return KindDeadline, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrBudgetExhausted):
		return KindBudget, http.StatusGatewayTimeout
	case errors.Is(err, core.ErrNoSchedule):
		return KindNoSchedule, http.StatusConflict
	default:
		return KindInternal, http.StatusInternalServerError
	}
}

// machineFor resolves a request's machine — a built-in name or an
// inline machlang source — to a shared instance. Sharing one instance
// per name (or per source digest, for inline machines) matters beyond
// allocation: the compile cache memoizes machine fingerprints by
// pointer, so a stable pointer keeps every request on the memoized fast
// path. Inline sources that fail to parse map to KindParse, exactly as
// loop sources do; a validation failure inside one maps to KindInvalid.
func (s *Server) machineFor(req *CompileRequest) (*machine.Machine, *ErrorResponse) {
	if req.MachineSource != "" {
		if req.Machine != "" {
			return nil, &ErrorResponse{Kind: KindInvalid, Error: "machine and machine_source are mutually exclusive"}
		}
		m, err := inlineMachine(req.MachineSource)
		if err != nil {
			var pe *machine.ParseError
			kind := KindParse
			if errors.As(err, &pe) && pe.Line == 0 && pe.Err != nil {
				// Validate failures surface wrapped in a line-less
				// ParseError; they are semantic, not syntactic.
				kind = KindInvalid
			}
			return nil, &ErrorResponse{Kind: kind, Error: err.Error()}
		}
		return m, nil
	}
	name := req.Machine
	if name == "" {
		name = "cydra5"
	}
	if m, ok := s.machines[name]; ok {
		return m, nil
	}
	return nil, &ErrorResponse{Kind: KindInvalid, Error: "unknown machine " + quote(name) + " (want cydra5, generic, tiny, or an inline machine_source)"}
}

// buildOptions translates the request's option spec into scheduler
// options, defaulting every zero field to the paper's configuration.
func buildOptions(spec *OptionsSpec) (core.Options, *ErrorResponse) {
	opts := core.DefaultOptions()
	if spec == nil {
		return opts, nil
	}
	if spec.Budget < 0 {
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "negative budget"}
	}
	if spec.Budget > 0 {
		opts.BudgetRatio = spec.Budget
	}
	switch spec.Priority {
	case "", "heightr":
		opts.Priority = core.PriorityHeightR
	case "fifo":
		opts.Priority = core.PriorityFIFO
	case "depth":
		opts.Priority = core.PriorityDepth
	case "recfirst":
		opts.Priority = core.PriorityRecFirst
	default:
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "unknown priority " + quote(spec.Priority)}
	}
	switch spec.Delays {
	case "", "vliw":
		opts.DelayModel = ir.VLIWDelays
	case "conservative":
		opts.DelayModel = ir.ConservativeDelays
	default:
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "unknown delay model " + quote(spec.Delays)}
	}
	if spec.MaxII < 0 {
		return opts, &ErrorResponse{Kind: KindInvalid, Error: "negative max_ii"}
	}
	opts.MaxII = spec.MaxII
	return opts, nil
}

// compileDeadline derives the per-compile deadline: the request's own
// timeout when given, clamped to the server's ceiling; otherwise the
// server default. Every loop of a batch gets its own full budget — the
// deadline is per compile, never shared across a request's loops. The
// clamp compares milliseconds before converting, so a timeout too large
// for a time.Duration cannot wrap negative.
func (s *Server) compileDeadline(req *CompileRequest) time.Duration {
	d := s.cfg.CompileTimeout
	if ms := req.TimeoutMS; ms > 0 && ms <= d.Milliseconds() {
		d = time.Duration(ms) * time.Millisecond
	}
	return d
}

// compileItem runs one loop through the full pipeline — parse, cached
// best-effort scheduling, the acyclic baseline, kernel generation — and
// folds the outcome into a BatchItem. It also feeds the per-loop
// metrics: outcome counts and the scheduler-effort counters.
func (s *Server) compileItem(ctx context.Context, req *CompileRequest) BatchItem {
	if s.testCompileHook != nil {
		s.testCompileHook(req)
	}
	resp, errResp, status := s.compileOne(ctx, req)
	if errResp != nil {
		s.metrics.countLoop(errResp.Kind)
		return BatchItem{Status: status, Error: errResp}
	}
	if resp.Degradation != nil {
		s.metrics.countLoop("degraded")
	} else {
		s.metrics.countLoop("ok")
	}
	return BatchItem{Status: status, Result: resp}
}

// compileOne is the pipeline behind compileItem, the msched CLI's too, so
// the two surfaces classify inputs identically: parse, the cached
// best-effort compile (its one analysis gives the bounds or rejects the
// loop; a cache hit runs none), the list baseline, kernel lowering.
func (s *Server) compileOne(ctx context.Context, req *CompileRequest) (*CompileResponse, *ErrorResponse, int) {
	m, errResp := s.machineFor(req)
	if errResp != nil {
		return nil, errResp, http.StatusUnprocessableEntity
	}
	opts, errResp := buildOptions(req.Options)
	if errResp != nil {
		return nil, errResp, http.StatusUnprocessableEntity
	}

	loop, err := modsched.ParseLoop(req.Source, m)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}

	cctx, cancel := context.WithTimeout(ctx, s.compileDeadline(req))
	defer cancel()
	sched, deg, err := modsched.CompileBestEffortCached(cctx, s.cache, loop, m, opts)
	if err != nil {
		kind, status := classify(err)
		return nil, &ErrorResponse{Kind: kind, Error: err.Error()}, status
	}
	resp, err := NewCompileResponse(sched, deg)
	if err != nil {
		return nil, &ErrorResponse{Kind: KindInvalid, Error: err.Error()}, http.StatusUnprocessableEntity
	}
	s.metrics.countEffort(&sched.Stats)
	kern, err := modsched.GenerateKernel(sched)
	if err != nil {
		return nil, &ErrorResponse{Kind: KindInternal, Error: err.Error()}, http.StatusInternalServerError
	}
	resp.Kernel = kern.String()
	return resp, nil, http.StatusOK
}

// NewCompileResponse is the response for a compile, all but the kernel,
// with the acyclic list-schedule baseline run on the compile's delays.
// That fails only for a distance-0 cycle of non-positive delay, which the
// modulo schedulers accept; callers report it as invalid input.
func NewCompileResponse(sched *core.Schedule, deg *core.Degradation) (*CompileResponse, error) {
	l := sched.Loop
	ls, err := listsched.Schedule(l, sched.Machine, sched.Delays)
	if err != nil {
		return nil, err
	}
	r := &CompileResponse{
		Name:           l.Name,
		Ops:            l.NumRealOps(),
		Edges:          len(l.Edges),
		ResMII:         sched.ResMII,
		MII:            sched.MII,
		NonTrivialSCCs: sched.NonTrivialSCCs(),
		ListSL:         ls.Length,
		II:             sched.II,
		SL:             sched.Length,
		Stages:         sched.StageCount(),
		SchedSteps:     sched.Stats.SchedSteps,
	}
	if deg != nil && deg.Degraded() {
		r.Degradation = &DegradationInfo{Stage: deg.Stage, Message: deg.String()}
		for _, f := range deg.Failures {
			r.Degradation.Failures = append(r.Degradation.Failures, StageFailureInfo{Stage: f.Stage, Error: f.Err.Error()})
		}
	}
	return r, nil
}

// quote renders a request-supplied name for a diagnostic.
func quote(s string) string { return strconv.Quote(s) }

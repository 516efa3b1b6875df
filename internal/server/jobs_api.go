package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"time"

	"modsched/internal/jobs"
)

// JobsConfig enables the async jobs API (EnableJobs).
type JobsConfig struct {
	// Dir is the write-ahead journal directory (required). Jobs fsynced
	// there survive SIGKILL and re-enqueue on restart.
	Dir string
	// Workers bounds concurrent job compiles (GOMAXPROCS-ish default is
	// the caller's call; min 1).
	Workers int
	// MaxQueued bounds admitted-but-not-terminal jobs (1024 when 0).
	MaxQueued int
	// Tenants maps tenant name → fair-share weight and submission quota;
	// unknown tenants get Default.
	Tenants map[string]jobs.TenantConfig
	// Default applies to tenants absent from Tenants.
	Default jobs.TenantConfig
	// WaitTimeout caps one GET /jobs/{id}/wait long poll (30s when 0);
	// the poll then returns the job's current state, not an error.
	WaitTimeout time.Duration
}

// EnableJobs mounts the async jobs subsystem: POST /jobs, GET
// /jobs/{id}, GET /jobs/{id}/wait. Call before Handler and before
// serving traffic — recovery of journaled jobs happens inside. Job
// outcomes are produced by the same pipeline as /compile against the
// same shared cache, so a completed job's outcome is byte-identical to
// what the synchronous endpoint would have returned.
func (s *Server) EnableJobs(cfg JobsConfig) error {
	if cfg.WaitTimeout <= 0 {
		cfg.WaitTimeout = 30 * time.Second
	}
	mgr, err := jobs.New(jobs.Config{
		Dir:       cfg.Dir,
		Workers:   cfg.Workers,
		MaxQueued: cfg.MaxQueued,
		Tenants:   cfg.Tenants,
		Default:   cfg.Default,
		Execute:   s.executeJob,
		ExpiredOutcome: func(payload json.RawMessage) json.RawMessage {
			return marshalOutcome(BatchItem{
				Status: http.StatusGatewayTimeout,
				Error:  &ErrorResponse{Kind: KindDeadline, Error: "job deadline expired before completion"},
			})
		},
	})
	if err != nil {
		return err
	}
	s.jobs = mgr
	s.jobsWaitCap = cfg.WaitTimeout
	return nil
}

// JobsEnabled reports whether EnableJobs has been called.
func (s *Server) JobsEnabled() bool { return s.jobs != nil }

// JobsCounters exposes the job subsystem's counters (zero when
// disabled).
func (s *Server) JobsCounters() jobs.Counters {
	if s.jobs == nil {
		return jobs.Counters{}
	}
	return s.jobs.Counters()
}

// JobsJournalStats exposes the journal's counters (zero when disabled).
func (s *Server) JobsJournalStats() jobs.JournalStats {
	if s.jobs == nil {
		return jobs.JournalStats{}
	}
	return s.jobs.JournalStats()
}

// CloseJobs drains the job workers: running jobs finish (bounded by
// ctx; past it their contexts are canceled), queued jobs stay journaled
// for the next start. The daemon calls this between http.Server
// shutdown and the final metrics flush.
func (s *Server) CloseJobs(ctx context.Context) error {
	if s.jobs == nil {
		return nil
	}
	return s.jobs.Close(ctx)
}

// executeJob is the jobs.Executor: decode the journaled payload, run it
// through the exact /compile pipeline, re-encode the outcome. A nil
// outcome with ok=false means shutdown interrupted the compile — the
// job stays queued on disk and re-runs after restart.
func (s *Server) executeJob(ctx context.Context, tenantName string, payload json.RawMessage) (json.RawMessage, bool) {
	var req CompileRequest
	if err := json.Unmarshal(payload, &req); err != nil {
		// Can't happen for payloads Submit validated, but a journal from a
		// future format must fail the job, not wedge the queue.
		return marshalOutcome(BatchItem{
			Status: http.StatusBadRequest,
			Error:  &ErrorResponse{Kind: KindBadRequest, Error: "malformed journaled payload: " + err.Error()},
		}), true
	}
	item := s.compileItem(ctx, &req)
	if ctx.Err() != nil && !errors.Is(ctx.Err(), context.DeadlineExceeded) {
		// Root-context cancellation (drain timeout / kill), not the job's
		// own deadline: no terminal outcome, the job survives to re-run.
		return nil, false
	}
	return marshalOutcome(item), true
}

// marshalOutcome encodes a BatchItem for the journal. Encoding cannot
// fail for these types; a zero-length result would be rejected by the
// journal, so fall back to a plain internal error.
func marshalOutcome(item BatchItem) json.RawMessage {
	out, err := json.Marshal(&item)
	if err != nil {
		return json.RawMessage(`{"status":500,"error":{"kind":"internal","error":"outcome encoding failure"}}`)
	}
	return out
}

// jobStatusResponse converts the manager's view to the wire shape.
func jobStatusResponse(st jobs.Status) *JobStatusResponse {
	return &JobStatusResponse{
		ID:       st.ID,
		Tenant:   st.Tenant,
		State:    st.State,
		Position: st.Position,
		Outcome:  st.Outcome,
	}
}

// handleJobSubmit is POST /jobs: derive the idempotent id, admit
// through the tenant's token bucket, journal, and return 202 (or 200
// when the id already exists — the dedup that makes retries safe).
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "jobs_submit"
	if s.jobs == nil {
		s.jobsDisabled(w, endpoint, start)
		return
	}
	var req JobSubmitRequest
	if !s.decode(w, r, endpoint, start, &req) {
		return
	}
	if s.draining.Load() {
		retry := s.retryAfterHint(0)
		s.refuse(w, http.StatusServiceUnavailable, KindDraining, "server is draining", retry)
		s.metrics.countRequest(endpoint, http.StatusServiceUnavailable, time.Since(start).Seconds())
		return
	}
	id := JobID(req.Tenant, &req.Request)
	payload, err := json.Marshal(&req.Request)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, &ErrorResponse{Kind: KindBadRequest, Error: "unencodable request"})
		s.metrics.countRequest(endpoint, http.StatusBadRequest, time.Since(start).Seconds())
		return
	}
	var deadline time.Time
	if ms := req.DeadlineMS; ms > 0 {
		// Clamp in milliseconds before converting: a deadline too large
		// for a time.Duration would otherwise wrap negative and expire
		// the job at once.
		deadline = time.Now().Add(time.Duration(min(ms, math.MaxInt64/int64(time.Millisecond))) * time.Millisecond)
	}
	st, dup, err := s.jobs.Submit(id, req.Tenant, payload, deadline)
	if err != nil {
		var qe *jobs.QuotaError
		var status int
		switch {
		case errors.As(err, &qe):
			status = http.StatusTooManyRequests
			retry := int(math.Ceil(qe.RetryAfter.Seconds()))
			s.refuse(w, status, KindQuota, err.Error(), retry)
		case errors.Is(err, jobs.ErrQueueFull):
			status = http.StatusTooManyRequests
			s.refuse(w, status, KindOverloaded, "job queue full; retry later", s.retryAfterHint(int(s.jobs.Counters().Queued)))
			s.metrics.countShed()
		case errors.Is(err, jobs.ErrDraining):
			status = http.StatusServiceUnavailable
			s.refuse(w, status, KindDraining, "server is draining", s.retryAfterHint(0))
		default:
			status = http.StatusInternalServerError
			writeJSON(w, status, &ErrorResponse{Kind: KindInternal, Error: err.Error()})
		}
		s.metrics.countRequest(endpoint, status, time.Since(start).Seconds())
		return
	}
	status := http.StatusAccepted
	if dup {
		status = http.StatusOK
	}
	writeJSON(w, status, jobStatusResponse(st))
	s.metrics.countRequest(endpoint, status, time.Since(start).Seconds())
}

// handleJobGet is GET /jobs/{id}: one poll, no blocking.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "jobs_get"
	if s.jobs == nil {
		s.jobsDisabled(w, endpoint, start)
		return
	}
	st, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, &ErrorResponse{Kind: KindNotFound, Error: "no such job"})
		s.metrics.countRequest(endpoint, http.StatusNotFound, time.Since(start).Seconds())
		return
	}
	writeJSON(w, http.StatusOK, jobStatusResponse(st))
	s.metrics.countRequest(endpoint, http.StatusOK, time.Since(start).Seconds())
}

// handleJobWait is GET /jobs/{id}/wait: long-poll until the job is
// terminal or the server's wait cap passes, then return its state
// either way (200; clients distinguish by the state field). Waiting
// holds no admission slot — a parked poller costs a goroutine, not a
// compile slot.
func (s *Server) handleJobWait(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	const endpoint = "jobs_wait"
	if s.jobs == nil {
		s.jobsDisabled(w, endpoint, start)
		return
	}
	id := r.PathValue("id")
	ctx, cancel := context.WithTimeout(r.Context(), s.jobsWaitCap)
	defer cancel()
	st, err := s.jobs.Wait(ctx, id)
	if err != nil {
		if errors.Is(err, jobs.ErrNotFound) {
			writeJSON(w, http.StatusNotFound, &ErrorResponse{Kind: KindNotFound, Error: "no such job"})
			s.metrics.countRequest(endpoint, http.StatusNotFound, time.Since(start).Seconds())
			return
		}
		if r.Context().Err() != nil {
			// Client went away; nothing useful to write.
			s.metrics.countRequest(endpoint, 499, time.Since(start).Seconds())
			return
		}
		// Wait cap elapsed: report where the job stands now.
		if st, err = s.jobs.Get(id); err != nil {
			writeJSON(w, http.StatusNotFound, &ErrorResponse{Kind: KindNotFound, Error: "no such job"})
			s.metrics.countRequest(endpoint, http.StatusNotFound, time.Since(start).Seconds())
			return
		}
	}
	writeJSON(w, http.StatusOK, jobStatusResponse(st))
	s.metrics.countRequest(endpoint, http.StatusOK, time.Since(start).Seconds())
}

func (s *Server) jobsDisabled(w http.ResponseWriter, endpoint string, start time.Time) {
	writeJSON(w, http.StatusNotFound, &ErrorResponse{Kind: KindNotFound, Error: "jobs API not enabled on this instance"})
	s.metrics.countRequest(endpoint, http.StatusNotFound, time.Since(start).Seconds())
}

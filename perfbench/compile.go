package main

import (
	"context"
	"fmt"
	"time"

	"modsched"
	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/ir"
	"modsched/internal/mii"
)

// This file runs the corpus and search workloads: one goroutine hands
// each loop, as looplang text, to ParseLoop and CompileBestEffort (which
// runs Check). No cache and no codegen sit on the timed path.

// compiled is one loop's compile outcome.
type compiled struct {
	sched *core.Schedule
	deg   *core.Degradation
	err   error
}

func compileText(src string, in *compileInputs) compiled {
	l, err := modsched.ParseLoop(src, in.mach)
	if err != nil {
		return compiled{err: err}
	}
	s, deg, err := modsched.CompileBestEffort(l, in.mach, modsched.DefaultOptions())
	return compiled{sched: s, deg: deg, err: err}
}

// firstPass holds a digest of the first compile of every input loop;
// later compiles of the same text must reproduce it exactly. Keeping
// digests rather than schedules keeps the benchmark's own memory out of
// the heap the program's GC works on.
type firstPass struct {
	seen []bool
	sum  []uint64
}

func newFirstPass(n int) *firstPass {
	return &firstPass{seen: make([]bool, n), sum: make([]uint64, n)}
}

// record checks compile c of loop i: the first one is remembered, a
// later one must match it. It reports whether c was the first.
func (fp *firstPass) record(r *report, i int, c compiled) bool {
	if c.err != nil {
		r.fail("compile: loop %d: %v", i, c.err)
	}
	sum := scheduleDigest(c.sched)
	if !fp.seen[i] {
		fp.seen[i], fp.sum[i] = true, sum
		return true
	}
	if sum != fp.sum[i] {
		r.fail("compile: loop %d: repeated compile differs from the first", i)
	}
	return false
}

// scheduleDigest fingerprints where a schedule placed every operation
// (0 for no schedule). It is FNV-1a over the placement words and
// allocates nothing, so it stays out of allocs_per_loop.
func scheduleDigest(s *core.Schedule) uint64 {
	if s == nil {
		return 0
	}
	h := uint64(14695981039346656037)
	mix := func(v int) { h = (h ^ uint64(v)) * 1099511628211 }
	mix(s.II)
	mix(s.Length)
	for i := range s.Times {
		mix(s.Times[i])
		mix(s.Alts[i])
	}
	return h
}

// runCompileTimed is the untraced run: the intro stream (first compiles
// interleaved with repeats), then passes over all loops until the time
// is up, every loop timed from text to verified schedule.
func runCompileTimed(r *report, in *compileInputs, seconds float64) {
	n := len(in.texts)
	fp := newFirstPass(n)
	first := make([]time.Duration, 0, n)
	repeat := make([]time.Duration, 0, 1<<18)

	rss := startRSSWindows()
	rt0 := sampleRuntime()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	steps, done := 0, false
	// step compiles loop i and reports whether the time is up.
	step := func(i int) bool {
		t0 := time.Now()
		c := compileText(in.texts[i], in)
		t1 := time.Now()
		steps++
		if fp.record(r, i, c) {
			first = append(first, t1.Sub(t0))
		} else {
			repeat = append(repeat, t1.Sub(t0))
		}
		return t1.After(deadline)
	}
	for _, i := range in.intro {
		if done = step(int(i)); done {
			break
		}
	}
	// Allocation counts repeat from one whole pass to the next once the
	// process-wide memos have settled into the pass order, so they are
	// counted from the end of the first pass after the intro, over
	// whole passes only.
	var passStart, countedAllocs uint64
	counted := 0
	for pass := 0; !done; pass++ {
		for i := 0; i < n && !done; i++ {
			done = step(i)
		}
		switch {
		case done:
		case pass == 0:
			passStart = mallocs()
		default:
			counted = pass * n
			countedAllocs = mallocs() - passStart
		}
	}
	elapsed := time.Since(start)
	allAllocs := mallocs() - m0
	rt1 := sampleRuntime()
	rssMedian, _ := rss.finish()
	r.set("peak_rss_mb", rssMedian)
	r.attempted = steps

	r.set("loops_per_s", float64(steps)/elapsed.Seconds())
	r.set("first_p50_ms", ms(quantile(first, 0.5)))
	r.set("repeat_p50_ms", ms(quantile(repeat, 0.5)))
	all := append(first, repeat...)
	r.set("latency_p50_ms", ms(quantile(all, 0.5)))
	r.set("latency_p99_ms", ms(quantile(all, 0.99)))
	if counted > 0 {
		r.set("allocs_per_loop", float64(countedAllocs)/float64(counted))
	} else {
		r.set("allocs_per_loop", float64(allAllocs)/float64(steps))
		r.note("allocs_per_loop is not exact: the run was too short for two whole passes after the intro")
	}
	cycles, share := runtimeDelta(rt0, rt1)
	r.note("timed %d compiles in %.3fs (%d first, %d repeat samples; p99 over %d); %d GC cycles, GC CPU share %.3f",
		steps, elapsed.Seconds(), len(first), len(repeat), len(all), cycles, share)

	finishCompiles(r, in, fp)
}

// finishCompiles compiles every loop again outside the timed phase,
// checks each schedule against the timed compiles' digest, then runs
// the oracle and the quality measures: Check, GenerateKernel, and the
// kernel simulated against the reference interpreter at a small trip
// count. It returns the compiles.
func finishCompiles(r *report, in *compileInputs, fp *firstPass) []compiled {
	cs := make([]compiled, len(in.texts))
	qs := make([]loopQuality, len(in.texts))
	msgs := make([]string, len(in.texts))
	_ = experiments.ParallelFor(context.Background(), len(in.texts), oracleWorkers, func(_ context.Context, i int) error {
		cs[i] = compileText(in.texts[i], in)
		s := cs[i].sched
		switch {
		case cs[i].err != nil:
			msgs[i] = fmt.Sprintf("compile: %v", cs[i].err)
			return nil
		case fp.seen[i] && scheduleDigest(s) != fp.sum[i]:
			msgs[i] = "schedule differs from the timed compiles"
			return nil
		}
		if err := modsched.CheckSchedule(s); err != nil {
			msgs[i] = fmt.Sprintf("check: %v", err)
			return nil
		}
		k, err := modsched.GenerateKernel(s)
		if err != nil {
			msgs[i] = fmt.Sprintf("codegen: %v", err)
			return nil
		}
		if d := simulate(k, s, int64(2+i%3)); d != "" {
			msgs[i] = "simulate: " + d
			return nil
		}
		qs[i], err = measureQuality(s, k)
		if err != nil {
			msgs[i] = fmt.Sprintf("quality: %v", err)
		}
		return nil
	})
	var tot qualityTotals
	degraded, above := 0, 0
	for i, msg := range msgs {
		if msg != "" {
			r.fail("oracle: loop %d: %s", i, msg)
			continue
		}
		tot.add(qs[i])
		if cs[i].sched.II > cs[i].sched.MII {
			above++
		}
		if cs[i].deg != nil && cs[i].deg.Degraded() {
			degraded++
		}
	}
	tot.report(r)
	r.note("oracle: %d loops compiled again, checked, lowered and simulated; %d above MII, %d degraded", tot.loops, above, degraded)
	return cs
}

// oracleWorkers bounds the goroutines of the untimed oracle phase.
const oracleWorkers = 2

// runCompileTraced is the traced run: after one warm-up pass it
// alternates untraced and traced passes over the inputs until the time
// is up. Traced passes span each public call in turn: parse, compile,
// then standalone validate, delays, MII and Check on the same loop.
func runCompileTraced(r *report, in *compileInputs, seconds float64, tr *tracer) {
	n := len(in.texts)
	fp := newFirstPass(n)
	for i, src := range in.texts {
		fp.record(r, i, compileText(src, in))
	}

	opts := modsched.DefaultOptions()
	var untraced, traced []time.Duration
	var rtCycles uint64
	var rtShare float64
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; len(traced) == 0 || time.Now().Before(deadline); pass++ {
		rt0 := sampleRuntime()
		t0 := time.Now()
		for i, src := range in.texts {
			fp.record(r, i, compileText(src, in))
		}
		untraced = append(untraced, time.Since(t0))
		c, s := runtimeDelta(rt0, sampleRuntime())
		rtCycles += c
		rtShare += s

		t0 = time.Now()
		for i, src := range in.texts {
			id := int64(pass*n + i)
			root := tr.begin("loop", id, -1)
			sp := tr.begin("looplang.parse", id, root)
			l, err := modsched.ParseLoop(src, in.mach)
			tr.end(sp)
			if err != nil {
				r.fail("traced pass: loop %d: %v", i, err)
				tr.end(root)
				continue
			}
			sp = tr.begin("core.compile", id, root)
			sched, _, err := modsched.CompileBestEffort(l, in.mach, opts)
			tr.end(sp)
			fp.record(r, i, compiled{sched: sched, err: err})
			sp = tr.begin("machine.validate", id, root)
			err = in.mach.Validate()
			tr.end(sp)
			if err != nil {
				r.fail("validate: %v", err)
			}
			sp = tr.begin("ir.delays", id, root)
			delays, err := ir.Delays(l, in.mach, opts.DelayModel)
			tr.end(sp)
			if err == nil {
				sp = tr.begin("mii.compute", id, root)
				_, err = mii.Compute(l, in.mach, delays, nil)
				tr.end(sp)
			}
			if err != nil {
				r.fail("traced pass: loop %d: %v", i, err)
			}
			if sched != nil {
				sp = tr.begin("core.check", id, root)
				err = modsched.CheckSchedule(sched)
				tr.end(sp)
				if err != nil {
					r.fail("traced pass: loop %d: check: %v", i, err)
				}
			}
			tr.end(root)
		}
		traced = append(traced, time.Since(t0))
	}
	r.attempted = n * (len(untraced) + len(traced))

	lts := tr.selfTimes()
	parse := meanSelfUS(lts, "looplang.parse")
	comp := meanSelfUS(lts, "core.compile")
	validate := meanSelfUS(lts, "machine.validate")
	delays := meanSelfUS(lts, "ir.delays")
	miiUS := meanSelfUS(lts, "mii.compute")
	check := meanSelfUS(lts, "core.check")
	r.set("looplang.parse_us", parse)
	r.set("core.compile_us", comp)
	r.set("machine.validate_us", validate)
	r.set("ir.delays_us", delays)
	r.set("mii.compute_us", miiUS)
	r.set("core.check_us", check)
	r.set("core.self_us", comp-validate-delays-miiUS-check)

	loopsRun := float64(n * len(untraced))
	r.set("runtime.gc_cycles", 1000*float64(rtCycles)/loopsRun)
	r.set("runtime.gc_cpu_share", rtShare/float64(len(untraced)))
	u, t := medianDuration(untraced), medianDuration(traced)
	r.set("trace.overhead_s", (t - u).Seconds())
	r.set("trace.overhead_pct", 100*(float64(t)/float64(u)-1))
	r.note("%d untraced and %d traced passes of %d loops; median pass %.4fs untraced, %.4fs traced",
		len(untraced), len(traced), n, u.Seconds(), t.Seconds())
	r.note("self time by span (traced passes):\n%s", selfTable(lts))

	compileAllocs(r, in)
	searchCounters(r, finishCompiles(r, in, fp))
}

// compileAllocs measures heap allocations per call of each layer's
// entry point, one whole pass per layer, with the process memos warm.
func compileAllocs(r *report, in *compileInputs) {
	opts := modsched.DefaultOptions()
	n := float64(len(in.texts))
	loops := make([]*ir.Loop, len(in.texts))
	a := mallocs()
	for i, src := range in.texts {
		loops[i], _ = modsched.ParseLoop(src, in.mach)
	}
	r.set("looplang.allocs_per_loop", float64(mallocs()-a)/n)

	delays := make([][]int, len(loops))
	for i, l := range loops {
		delays[i], _ = ir.Delays(l, in.mach, opts.DelayModel)
	}
	a = mallocs()
	for i, l := range loops {
		_, _ = mii.Compute(l, in.mach, delays[i], nil)
	}
	r.set("mii.allocs_per_loop", float64(mallocs()-a)/n)

	a = mallocs()
	for _, l := range loops {
		_, _, _ = modsched.CompileBestEffort(l, in.mach, opts)
	}
	r.set("core.allocs_per_loop", float64(mallocs()-a)/n)
}

// searchCounters reports the scheduler's own effort counters
// (Schedule.Stats) over a set of compiles.
func searchCounters(r *report, cs []compiled) {
	var c core.Counters
	var loops, ops, above, degraded int64
	for _, x := range cs {
		if x.sched == nil {
			continue
		}
		loops++
		ops += int64(x.sched.Loop.NumRealOps() + 2)
		c.Add(&x.sched.Stats)
		if x.sched.II > x.sched.MII {
			above++
		}
		if x.deg != nil && x.deg.Degraded() {
			degraded++
		}
	}
	if loops == 0 {
		return
	}
	nl, no := float64(loops), float64(ops)
	r.set("mii.mindist_inner_per_loop", float64(c.MII.MinDistInner)/nl)
	r.set("mii.profile_builds_per_loop", float64(c.MII.ProfileBuilds)/nl)
	r.set("core.ii_attempts_per_loop", float64(c.IIAttempts)/nl)
	if c.IIAttempts > 0 {
		r.set("core.ii_yield", nl/float64(c.IIAttempts))
	}
	if c.SchedSteps > 0 {
		r.set("core.step_yield", float64(c.SchedStepsFinal)/float64(c.SchedSteps))
	}
	r.set("core.unschedules_per_op", float64(c.Unschedules)/no)
	r.set("core.findtimeslot_iters_per_op", float64(c.FindTimeSlotIters)/no)
	r.set("core.estart_pred_exams_per_op", float64(c.EstartPredExams)/no)
	r.set("core.heightr_relax_per_op", float64(c.HeightRRelax)/no)
	r.set("core.ii_gt_mii_share", float64(above)/nl)
	r.set("core.degraded_share", float64(degraded)/nl)
}

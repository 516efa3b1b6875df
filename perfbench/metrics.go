package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
)

// metricDef names a metric and its unit. The lists below are the ones
// BENCHMARK.json declares; TestMetricListsMatchBenchmarkJSON keeps them
// equal.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"loops_per_s", "loops/s"},
	{"latency_p50_ms", "ms"},
	{"first_p50_ms", "ms"},
	{"repeat_p50_ms", "ms"},
	{"allocs_per_loop", "allocs"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
	{"rotregs_per_loop", "regs"},
}

// perLayer are the metrics a traced run reports, on every workload. A
// time of 0 means the layer is not on that workload's timed path, or
// not measured there (see README.md).
var perLayer = []metricDef{
	{"delta_ii_per_loop", "cycles"},
	{"dilation_pct", "%"},
	{"steps_per_op", "steps"},
	{"looplang.parse_us", "us"},
	{"looplang.allocs_per_loop", "allocs"},
	{"machine.validate_us", "us"},
	{"ir.delays_us", "us"},
	{"mii.compute_us", "us"},
	{"mii.allocs_per_loop", "allocs"},
	{"mii.mindist_inner_per_loop", "count"},
	{"mii.profile_builds_per_loop", "count"},
	{"core.compile_us", "us"},
	{"core.self_us", "us"},
	{"core.check_us", "us"},
	{"core.allocs_per_loop", "allocs"},
	{"core.ii_attempts_per_loop", "count"},
	{"core.ii_yield", "ratio"},
	{"core.step_yield", "ratio"},
	{"core.unschedules_per_op", "count"},
	{"core.findtimeslot_iters_per_op", "count"},
	{"core.estart_pred_exams_per_op", "count"},
	{"core.heightr_relax_per_op", "count"},
	{"core.ii_gt_mii_share", "ratio"},
	{"core.degraded_share", "ratio"},
	{"listsched.schedule_us", "us"},
	{"codegen.kernel_us", "us"},
	{"codegen.render_us", "us"},
	{"codegen.allocs_per_loop", "allocs"},
	{"codegen.rotregs_per_loop", "regs"},
	{"schedcache.hits", "count"},
	{"schedcache.misses", "count"},
	{"schedcache.inflight_joins", "count"},
	{"schedcache.evictions", "count"},
	{"schedcache.hit_ratio", "ratio"},
	{"schedcache.lookup_us", "us"},
	{"server.roundtrip_us", "us"},
	{"server.request_us", "us"},
	{"server.transport_us", "us"},
	{"server.shed", "count"},
	{"runtime.gc_cycles", "count/kloop"},
	{"runtime.gc_cpu_share", "ratio"},
	{"trace.overhead_s", "s"},
	{"trace.overhead_pct", "%"},
}

// ungated are printed by an untraced run but are not in its result
// line: they move between seeds by more than any bound BENCHMARK.json
// may set (a different draw has different hard loops), or, for
// failed_ratio, are 0 at HEAD and already fail the run when not. The
// quality metrics are deterministic per seed and are in the traced
// run's list as well.
var ungated = []metricDef{
	{"latency_p99_ms", "ms"},
	{"failed_ratio", "ratio"},
	{"delta_ii_per_loop", "cycles"},
	{"dilation_pct", "%"},
	{"steps_per_op", "steps"},
}

// report is one workload run's outcome.
type report struct {
	workload  string
	trace     bool
	attempted int
	failed    int
	// problems describes each failure (capped; failed keeps the count).
	problems []string
	values   map[string]float64
	notes    []string
}

const maxProblems = 20

func newReport(workload string, trace bool) *report {
	return &report{workload: workload, trace: trace, values: map[string]float64{}}
}

// fail counts one failure.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < maxProblems {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) correct() bool { return r.failed == 0 }

// gated is the metric list this run's JSON result carries.
func (r *report) gated() []metricDef {
	if r.trace {
		return perLayer
	}
	return endToEnd
}

// printHuman writes the readable block: every metric by name and unit.
func (r *report) printHuman(w io.Writer) {
	mode := "untraced"
	if r.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s)\n", r.workload, mode)
	printed := r.gated()
	if !r.trace {
		printed = append(slices.Clip(printed), ungated...)
	}
	for _, m := range printed {
		fmt.Fprintf(w, "  %-32s %14.6g %s\n", m.name, r.values[m.name], m.unit)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, p := range r.problems {
		fmt.Fprintf(w, "  FAILURE: %s\n", p)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// printJSON writes the one-line result.
func (r *report) printJSON(w io.Writer) error {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, m := range r.gated() {
		v := r.values[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.name, v)
		}
		out.Metrics[m.name] = jsonMetric{Value: v, Unit: m.unit}
	}
	data, err := json.Marshal(&out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

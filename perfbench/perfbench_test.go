package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
)

func mustRoot(t *testing.T) string {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	return root
}

func TestInputsFollowTheSeed(t *testing.T) {
	root := mustRoot(t)
	compile := map[string]func(int64) (*compileInputs, error){
		"corpus": makeCorpusInputs,
		"search": func(s int64) (*compileInputs, error) { return makeSearchInputs(s, root) },
	}
	for name, mk := range compile {
		a, err := mk(7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := mk(7)
		c, _ := mk(8)
		if !slices.Equal(a.texts, b.texts) {
			t.Errorf("%s: seed 7 generated different inputs twice", name)
		}
		if slices.Equal(a.texts, c.texts) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", name)
		}
	}

	a, err := makeServeInputs(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := makeServeInputs(7, 1)
	c, _ := makeServeInputs(8, 1)
	same := func(x, y *serveInputs) bool {
		return slices.Equal(x.pool, y.pool) && slices.Equal(x.stream, y.stream) &&
			slices.EqualFunc(x.warmup, y.warmup, bytes.Equal)
	}
	if !same(a, b) {
		t.Error("serve: seed 7 generated different inputs twice")
	}
	if same(a, c) {
		t.Error("serve: seeds 7 and 8 generated the same inputs")
	}
	if a.hot != serveHotLoops || len(a.qualityPool) != serveHotLoops+serveQualityFresh {
		t.Errorf("serve: hot set %d, quality pool %d", a.hot, len(a.qualityPool))
	}
}

// runOK runs one workload and fails the test unless every output passed
// the oracle.
func runOK(t *testing.T, o options) *report {
	t.Helper()
	o.root = mustRoot(t)
	if o.trace {
		o.traceOut = filepath.Join(t.TempDir(), "spans.jsonl")
	}
	r, err := runWorkload(o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	if !r.correct() || r.attempted < 1 {
		t.Fatalf("%s: %d of %d failed: %v", o.workload, r.failed, r.attempted, r.problems)
	}
	for _, m := range r.gated() {
		if v := r.values[m.name]; math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("%s: %s = %v", o.workload, m.name, v)
		}
	}
	return r
}

// TestDeterministicMetricsRepeat runs each compile workload twice at one
// seed: the quality metrics must repeat exactly, and allocs_per_loop to
// within a few parts per million (core keeps its scratch buffers in a
// sync.Pool, which a GC cycle may empty).
func TestDeterministicMetricsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the corpus and search workloads twice")
	}
	for _, w := range []string{"corpus", "search"} {
		// Long enough for the intro stream and the two whole passes
		// allocs_per_loop needs.
		a := runOK(t, options{workload: w, seed: 3, seconds: 12})
		b := runOK(t, options{workload: w, seed: 3, seconds: 12})
		for _, name := range []string{"delta_ii_per_loop", "dilation_pct", "steps_per_op", "rotregs_per_loop"} {
			if a.values[name] != b.values[name] || a.values[name] == 0 {
				t.Errorf("%s: %s = %v then %v", w, name, a.values[name], b.values[name])
			}
		}
		x, y := a.values["allocs_per_loop"], b.values["allocs_per_loop"]
		if math.Abs(x-y) > 1e-4*x {
			t.Errorf("%s: allocs_per_loop = %v then %v", w, x, y)
		}
		for _, n := range a.notes {
			if strings.Contains(n, "not exact") {
				t.Errorf("%s: %s", w, n)
			}
		}
	}
}

func TestServeSmoke(t *testing.T) {
	r := runOK(t, options{workload: "serve", seed: 2, seconds: 1})
	for _, m := range endToEnd {
		if r.values[m.name] <= 0 {
			t.Errorf("%s = %v, want > 0", m.name, r.values[m.name])
		}
	}
}

// TestTracedRunConfirmsDesign checks what the workloads were chosen for:
// codegen is off the timed path of corpus and search and the largest
// layer of the served pipeline, and search exercises the II search far
// more than corpus does.
func TestTracedRunConfirmsDesign(t *testing.T) {
	if testing.Short() {
		t.Skip("makes a traced run of every workload")
	}
	tr := map[string]*report{}
	for _, w := range workloads {
		tr[w] = runOK(t, options{workload: w, seed: 4, seconds: 1, trace: true})
	}
	for _, w := range []string{"corpus", "search"} {
		if v := tr[w].values["codegen.kernel_us"]; v != 0 {
			t.Errorf("%s: codegen.kernel_us = %v, want 0 (off the timed path)", w, v)
		}
	}
	sv := tr["serve"].values
	for _, other := range []string{"looplang.parse_us", "mii.compute_us", "listsched.schedule_us", "core.compile_us", "codegen.render_us"} {
		if sv["codegen.kernel_us"] <= sv[other] {
			t.Errorf("serve: codegen.kernel_us %v not above %s %v", sv["codegen.kernel_us"], other, sv[other])
		}
	}
	for _, name := range []string{"core.unschedules_per_op", "core.ii_gt_mii_share"} {
		if s, c := tr["search"].values[name], tr["corpus"].values[name]; s < 1.5*c || c == 0 {
			t.Errorf("%s: search %v, corpus %v; want search >= 1.5x corpus", name, s, c)
		}
	}
}

// plantFault corrupts every 25th /compile response body without
// changing its length or status.
func plantFault(h http.Handler) http.Handler {
	var n atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/compile" || n.Add(1)%25 != 0 {
			h.ServeHTTP(w, r)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		for k, v := range rec.Header() {
			w.Header()[k] = v
		}
		w.WriteHeader(rec.Code)
		w.Write(bytes.Replace(rec.Body.Bytes(), []byte(`"sl":`), []byte(`"SL":`), 1))
	})
}

func TestPlantedWrongResponseFails(t *testing.T) {
	r, err := runWorkload(options{workload: "serve", seed: 2, seconds: 1, root: mustRoot(t), wrap: plantFault})
	if err != nil {
		t.Fatal(err)
	}
	if r.correct() || r.failed < r.attempted/25-1 {
		t.Fatalf("planted faults: %d failures of %d requests", r.failed, r.attempted)
	}
	for _, p := range r.problems {
		if !strings.Contains(p, "differs from the local rendering") {
			t.Errorf("unexpected failure: %s", p)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 30, End: 60},
		{Name: "c", Parent: 2, Start: 35, End: 45},
	}}
	lts := tr.selfTimes()
	want := map[string]int64{"root": 50, "a": 30, "b": 20, "c": 10}
	for name, self := range want {
		if got := int64(lts[name].self); got != self {
			t.Errorf("%s: self %d, want %d", name, got, self)
		}
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metric tables of this
// package and BENCHMARK.json at the repository root identical.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(mustRoot(t), "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, code %v", names, workloads)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
}

// TestSpecMatchesCode keeps spec.json's generator parameters equal to
// the ones the code uses.
func TestSpecMatchesCode(t *testing.T) {
	data, err := os.ReadFile("spec.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads map[string]struct {
			Generator map[string]any `json:"generator"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]any{
		"corpus": {"draws": corpusDraws, "N": corpusConfig(1, 0).N, "MedianOps": corpusConfig(1, 0).MedianOps, "livermore_kernels": 27, "intro_share": introShare},
		"search": {"draws": searchDraws, "intro_share": introShare, "N": searchLoops, "MedianOps": searchMedianOps, "VectorizableFrac": searchConfig(1, 0).VectorizableFrac, "InitLoopFrac": searchConfig(1, 0).InitLoopFrac, "machine_file": searchMachineFile},
		"serve": {"hot_loops": serveHotLoops, "hot_share": serveHotShare, "clients": serveClients,
			"fresh_per_second": serveFreshPerSecond, "warmup_requests": serveWarmup, "quality_fresh": serveQualityFresh},
	}
	for w, params := range want {
		got := spec.Workloads[w].Generator
		for k, v := range params {
			gj, _ := json.Marshal(got[k])
			wj, _ := json.Marshal(v)
			if string(gj) != string(wj) {
				t.Errorf("spec.json %s.generator.%s = %s, code %s", w, k, gj, wj)
			}
		}
	}
}

// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads through the public entry points of the layers they
// use, checks every output against an independent oracle, and prints
// each metric by name with its unit; the last line of standard output is
// a one-line JSON result. See README.md.
//
//	go run . --workload corpus --seed 1 --seconds 10 --trace 0
//
// --trace 1 makes the separate traced run that reports the per-layer
// metrics instead of the end-to-end ones.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median, so that work moved into set-up shows without one slow build
// deciding it.
const setupRepeats = 3

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceOut string
	root     string
	// wrap, when set, wraps the serve workload's handler (tests plant
	// faults with it).
	wrap func(http.Handler) http.Handler
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "corpus, search, serve, or all")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the timed phase")
	trace := fs.Int("trace", 0, "1 makes the traced run, which reports the per-layer metrics")
	traceOut := fs.String("trace-out", "", "file for the traced run's spans (default .bench_build/traces/WORKLOAD-seedN.jsonl)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: usage: perfbench --workload W --seed N --seconds S --trace 0|1")
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want corpus, search, serve or all)\n", *workload)
		return 2
	}
	root, err := findRoot()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	code := 0
	for _, name := range names {
		o := options{workload: name, seed: *seed, seconds: *seconds, trace: *trace == 1, traceOut: *traceOut, root: root}
		r, err := runWorkload(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		r.printHuman(stdout)
		if err := r.printJSON(stdout); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if !r.correct() {
			fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed\n", name, r.failed, r.attempted)
			code = 1
		}
	}
	return code
}

// runWorkload sets the workload up setupRepeats times, then makes the
// untraced or the traced run on the last set-up.
func runWorkload(o options) (*report, error) {
	r := newReport(o.workload, o.trace)
	var setups []time.Duration
	var cin *compileInputs
	var sin *serveInputs
	var d *daemon
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		var err error
		switch o.workload {
		case "corpus":
			cin, err = makeCorpusInputs(o.seed)
		case "search":
			cin, err = makeSearchInputs(o.seed, o.root)
		case "serve":
			sin, d, err = setupServe(o.seed, o.seconds, o.wrap)
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0))
	}
	r.set("setup_s", medianDuration(setups).Seconds())

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var err error
	switch {
	case cin != nil && !o.trace:
		runCompileTimed(r, cin, o.seconds)
	case cin != nil:
		runCompileTraced(r, cin, o.seconds, tr)
	case !o.trace:
		err = runServeTimed(r, sin, d, o.seconds)
	default:
		err = runServeTraced(r, sin, d, o.seconds, tr, o.wrap)
	}
	if d != nil {
		err = errors.Join(err, d.close())
	}
	if err != nil {
		return nil, err
	}
	if o.trace {
		path := o.traceOut
		if path == "" {
			path = filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		}
		if err := tr.write(path); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		r.note("spans written to %s", path)
	} else {
		r.set("failed_ratio", float64(r.failed)/float64(max(r.attempted, 1)))
	}
	return r, nil
}

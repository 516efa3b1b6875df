package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"modsched/internal/server"
)

// startDaemon serves a fresh in-process mschedd and returns its URL.
func startDaemon(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(server.New(server.Config{}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

func writeLoops(t *testing.T, sources map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	names := make([]string, 0, len(sources))
	for name := range sources {
		names = append(names, name)
	}
	// Deterministic CLI argument order.
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	paths := make([]string, len(names))
	for i, name := range names {
		paths[i] = filepath.Join(dir, name)
		if err := os.WriteFile(paths[i], []byte(sources[name]), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return paths
}

// TestServerModeMatchesLocal: the same inputs through -server and
// through local compilation must produce byte-identical stdout and
// stderr and the same exit code — for multi-file, single-file, and
// stdin invocations.
func TestServerModeMatchesLocal(t *testing.T) {
	url := startDaemon(t)
	paths := writeLoops(t, map[string]string{
		"a_daxpy.loop": goodLoop,
		"b_tiny.loop":  goodLoop,
	})

	run2 := func(args []string, stdin string) (int, string, string) {
		var out, errb bytes.Buffer
		code := run(args, strings.NewReader(stdin), &out, &errb)
		return code, out.String(), errb.String()
	}

	cases := []struct {
		name  string
		args  []string
		stdin string
	}{
		{"multi-file", paths, ""},
		{"single-file", paths[:1], ""},
		{"stdin", nil, goodLoop},
		{"machine and options", append([]string{"-machine", "tiny", "-priority", "fifo", "-budget", "4"}, paths[0]), ""},
		// A machlang file ships inline to the daemon as machine_source;
		// the served compile must still render byte-identically.
		{"machine file", append([]string{"-machine", "../../testdata/machines/simd64.mach"}, paths[0]), ""},
		{"parse error", nil, "loop broken\nnonsense\n"},
		{"infeasible", nil, impossibleLoop},
		{"zero-distance cycle", nil, zeroCycleLoop},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lCode, lOut, lErr := run2(tc.args, tc.stdin)
			sCode, sOut, sErr := run2(append([]string{"-server", url}, tc.args...), tc.stdin)
			if sCode != lCode {
				t.Errorf("exit = %d served, %d local (served stderr: %s)", sCode, lCode, sErr)
			}
			if sOut != lOut {
				t.Errorf("stdout diverges:\n-- local --\n%s\n-- served --\n%s", lOut, sOut)
			}
			if sErr != lErr {
				t.Errorf("stderr diverges:\n-- local --\n%s\n-- served --\n%s", lErr, sErr)
			}
		})
	}
}

// TestServerModeRejectsLocalFlags: flags that cannot travel to the
// daemon are usage errors, not silent no-ops.
func TestServerModeRejectsLocalFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-server", "localhost:1", "-verbose"},
		{"-server", "localhost:1", "-mrt"},
		{"-server", "localhost:1", "-gantt", "3"},
		{"-server", "localhost:1", "-flat"},
		{"-server", "localhost:1", "-backsub"},
		{"-server", "localhost:1", "-cache"},
		{"-server", "localhost:1", "-algo", "slack"},
	} {
		var out, errb bytes.Buffer
		code := run(args, strings.NewReader(goodLoop), &out, &errb)
		if code != exitUsage {
			t.Errorf("%v: exit = %d, want %d (stderr: %s)", args, code, exitUsage, errb.String())
		}
		if !strings.Contains(errb.String(), "not supported with -server") {
			t.Errorf("%v: stderr lacks rejection notice: %s", args, errb.String())
		}
	}
}

// TestServerModeTransportError: an unreachable daemon falls back to
// local compilation with a one-line warning — output and exit code
// otherwise identical to a plain local run.
func TestServerModeTransportError(t *testing.T) {
	var lOut, lErr bytes.Buffer
	lCode := run(nil, strings.NewReader(goodLoop), &lOut, &lErr)

	var out, errb bytes.Buffer
	code := run([]string{"-server", "127.0.0.1:1"}, strings.NewReader(goodLoop), &out, &errb)
	if code != lCode {
		t.Errorf("exit = %d, want %d (stderr: %s)", code, lCode, errb.String())
	}
	if out.String() != lOut.String() {
		t.Errorf("fallback stdout diverges from local:\n-- local --\n%s\n-- fallback --\n%s", lOut.String(), out.String())
	}
	if !strings.Contains(errb.String(), "warning: cannot reach server") ||
		!strings.Contains(errb.String(), "compiling locally") {
		t.Errorf("stderr lacks the fallback warning: %s", errb.String())
	}
}

// TestServerModeFallbackOnDrain: a draining tier (503 + Retry-After)
// triggers the same local fallback, multi-file included.
func TestServerModeFallbackOnDrain(t *testing.T) {
	s := server.New(server.Config{})
	s.StartDrain()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	paths := writeLoops(t, map[string]string{
		"a_daxpy.loop": goodLoop,
		"b_tiny.loop":  goodLoop,
	})

	var lOut, lErr bytes.Buffer
	lCode := run(paths, strings.NewReader(""), &lOut, &lErr)

	var out, errb bytes.Buffer
	code := run(append([]string{"-server", ts.URL}, paths...), strings.NewReader(""), &out, &errb)
	if code != lCode || out.String() != lOut.String() {
		t.Errorf("drain fallback diverges: exit %d/%d\n-- local --\n%s\n-- fallback --\n%s",
			code, lCode, lOut.String(), out.String())
	}
	if !strings.Contains(errb.String(), "draining") || !strings.Contains(errb.String(), "compiling locally") {
		t.Errorf("stderr lacks the drain fallback warning: %s", errb.String())
	}
}

// shrinkShedWaits makes the 429 retry budget test-sized and restores it.
func shrinkShedWaits(t *testing.T) {
	t.Helper()
	oldCap, oldTotal := shedWaitCap, shedTotalWait
	shedWaitCap, shedTotalWait = 20*time.Millisecond, 50*time.Millisecond
	t.Cleanup(func() { shedWaitCap, shedTotalWait = oldCap, oldTotal })
}

// TestServerModeShedRetry: 429 + Retry-After is retried, the eventual
// answer is rendered exactly as if the shed never happened.
func TestServerModeShedRetry(t *testing.T) {
	shrinkShedWaits(t)
	real := server.New(server.Config{}).Handler()
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			io.WriteString(w, `{"kind":"overloaded","error":"server overloaded; retry later","retry_after_sec":1}`+"\n")
			return
		}
		real.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var lOut, lErr bytes.Buffer
	lCode := run(nil, strings.NewReader(goodLoop), &lOut, &lErr)

	var out, errb bytes.Buffer
	code := run([]string{"-server", ts.URL}, strings.NewReader(goodLoop), &out, &errb)
	if code != lCode || out.String() != lOut.String() || errb.String() != lErr.String() {
		t.Errorf("shed retry output diverges: exit %d/%d\nstdout:\n%s\nvs\n%s\nstderr: %q vs %q",
			code, lCode, out.String(), lOut.String(), errb.String(), lErr.String())
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("server saw %d requests, want 3 (two sheds, one success)", got)
	}
}

// TestShedWaitDefaults pins the advertised retry budget: each honored
// Retry-After wait is capped at 2s and the total sleep across retries
// at 8s. Changing these changes documented client behavior.
func TestShedWaitDefaults(t *testing.T) {
	if shedWaitCap != 2*time.Second {
		t.Errorf("shedWaitCap = %v, want 2s", shedWaitCap)
	}
	if shedTotalWait != 8*time.Second {
		t.Errorf("shedTotalWait = %v, want 8s", shedTotalWait)
	}
}

// TestServerModeShedRetryAfterVariants: hostile or missing Retry-After
// headers must not break the retry contract. A malformed, negative, or
// absent value falls to the default wait; a huge value is capped at
// shedWaitCap — so in every case the client retries until shedTotalWait
// is exhausted (observable as exactly 3 requests under the shrunken
// 20ms/50ms budget: capped waits of 20ms fit twice into 50ms), then
// surfaces the overload as an error. It must never sleep the full hint
// and never silently fall back to local compilation — overload is not
// absence, and local output here would mask a capacity problem.
func TestServerModeShedRetryAfterVariants(t *testing.T) {
	cases := []struct {
		name       string
		retryAfter string // "" = omit the header entirely
	}{
		{"absent", ""},
		{"malformed", "soon"},
		{"negative", "-3"},
		{"huge", "3600"},
		{"huge-overflowing", "99999999999999999999"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shrinkShedWaits(t)
			var calls atomic.Int32
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				calls.Add(1)
				if tc.retryAfter != "" {
					w.Header().Set("Retry-After", tc.retryAfter)
				}
				w.WriteHeader(http.StatusTooManyRequests)
				io.WriteString(w, `{"kind":"overloaded","error":"server overloaded; retry later","retry_after_sec":1}`+"\n")
			}))
			defer ts.Close()

			start := time.Now()
			var out, errb bytes.Buffer
			code := run([]string{"-server", ts.URL}, strings.NewReader(goodLoop), &out, &errb)
			elapsed := time.Since(start)

			if code != exitOther {
				t.Errorf("exit = %d, want %d (stderr: %s)", code, exitOther, errb.String())
			}
			if out.Len() != 0 {
				t.Errorf("stdout not empty — the client fell back or rendered under overload: %s", out.String())
			}
			if !strings.Contains(errb.String(), "overloaded") {
				t.Errorf("stderr lacks the overload diagnostic: %s", errb.String())
			}
			if strings.Contains(errb.String(), "compiling locally") {
				t.Errorf("client silently fell back to local compilation under overload: %s", errb.String())
			}
			// Capped waits (20ms) fit the 50ms total budget exactly twice:
			// initial request + 2 retries. An uncapped huge hint would bust
			// the budget before the first retry (1 call); an unbounded loop
			// would exceed 3.
			if got := calls.Load(); got != 3 {
				t.Errorf("server saw %d requests, want exactly 3 (caps or retry bound violated)", got)
			}
			// Belt and braces: wall time must reflect the capped waits, not
			// the hinted hours.
			if elapsed > 5*time.Second {
				t.Errorf("retry loop slept %v — Retry-After cap not applied", elapsed)
			}
		})
	}
}

// TestServerModeShedBounded: an always-shedding server exhausts the
// bounded wait and the client errors — it must not retry forever and
// must not silently fall back (overload is not absence).
func TestServerModeShedBounded(t *testing.T) {
	shrinkShedWaits(t)
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
		io.WriteString(w, `{"kind":"overloaded","error":"server overloaded; retry later","retry_after_sec":1}`+"\n")
	}))
	defer ts.Close()

	var out, errb bytes.Buffer
	code := run([]string{"-server", ts.URL}, strings.NewReader(goodLoop), &out, &errb)
	if code != exitOther {
		t.Errorf("exit = %d, want %d (stderr: %s)", code, exitOther, errb.String())
	}
	if !strings.Contains(errb.String(), "overloaded") {
		t.Errorf("stderr lacks the overload diagnostic: %s", errb.String())
	}
	if out.Len() != 0 {
		t.Errorf("unexpected stdout on overload: %s", out.String())
	}
	if got := calls.Load(); got < 2 {
		t.Errorf("server saw %d requests, want at least one retry", got)
	}
}

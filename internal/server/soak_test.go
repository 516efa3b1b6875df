package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSoak drives the service with a mixed single/batch workload from 8
// concurrent clients and then reconciles three ledgers exactly:
//
//  1. every response body is byte-identical to a reference compile of
//     the same request on an independent server instance,
//  2. the client-side tally of requests, loops, and sheds equals the
//     server's /metrics counters,
//  3. the cache counters balance: one miss per distinct key, everything
//     else a hit or an in-flight join.
//
// The full run is 10000 requests; -short trims it.
func TestSoak(t *testing.T) {
	totalRequests := 10000
	if testing.Short() {
		totalRequests = 600
	}
	const clients = 8

	// The request mix: schedulable loops across machines and options
	// (cache keys), one proven-infeasible loop, one parse error.
	specs := []CompileRequest{
		{Source: daxpySource},
		{Source: daxpySource, Machine: "tiny"},
		{Source: daxpySource, Options: &OptionsSpec{Priority: "fifo"}},
		{Source: chainSource(12)},
		{Source: chainSource(20), Options: &OptionsSpec{Delays: "conservative"}},
		{Source: impossibleSource},
		{Source: "loop broken\nnonsense\n"},
	}
	// Distinct cache keys: the specs that schedule. The infeasible loop
	// reaches the cache, since its bounds are computed inside the
	// compile, but a loop the analysis rejects is not cache traffic; the
	// parse error never reaches the cache.
	const cacheKeys = 5

	// Reference outcomes from an independent instance — same pipeline,
	// separate cache, sequential.
	ref := New(Config{})
	expected := make([]BatchItem, len(specs))
	for i := range specs {
		expected[i] = ref.compileItem(context.Background(), &specs[i])
	}
	expectBody := func(item BatchItem) []byte {
		var v any = item.Result
		if item.Error != nil {
			v = item.Error
		}
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return append(b, '\n')
	}

	s, ts := newTestServer(t, Config{MaxInFlight: 4, QueueDepth: 8, QueueWait: 30 * time.Second})

	// tally is the client-side ledger the server's /metrics must match.
	type tally struct {
		requests map[[2]string]int64 // {endpoint, status} -> count
		loops    map[string]int64
		shed     int64
	}
	merged := tally{requests: make(map[[2]string]int64), loops: make(map[string]int64)}
	var mu sync.Mutex

	outcome := func(item BatchItem) string {
		if item.Error != nil {
			return item.Error.Kind
		}
		if item.Result.Degradation != nil {
			return "degraded"
		}
		return "ok"
	}

	// post sends one request, retrying on 429 per the Retry-After
	// contract (capped so a wedged server fails the test instead of
	// hanging it). Every attempt lands in the tally, including the shed
	// ones — that is what makes the reconciliation exact.
	post := func(tl *tally, endpoint string, payload []byte) (int, []byte) {
		path := "/compile"
		if endpoint == "batch" {
			path = "/compile/batch"
		}
		for attempt := 0; ; attempt++ {
			resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(payload))
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Error(err)
				return 0, nil
			}
			tl.requests[[2]string{endpoint, fmt.Sprint(resp.StatusCode)}]++
			if resp.StatusCode == http.StatusTooManyRequests {
				tl.shed++
				if attempt > 20 {
					t.Error("request shed more than 20 times")
					return resp.StatusCode, body
				}
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return resp.StatusCode, body
		}
	}

	perClient := totalRequests / clients
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tl := tally{requests: make(map[[2]string]int64), loops: make(map[string]int64)}
			for i := 0; i < perClient; i++ {
				k := (c*31 + i) % len(specs)
				if i%4 == 3 {
					// One batch of three consecutive specs.
					idx := []int{k, (k + 1) % len(specs), (k + 2) % len(specs)}
					breq := BatchRequest{}
					want := BatchResponse{}
					for _, j := range idx {
						breq.Loops = append(breq.Loops, specs[j])
						want.Results = append(want.Results, expected[j])
					}
					payload, err := json.Marshal(breq)
					if err != nil {
						t.Error(err)
						return
					}
					status, body := post(&tl, "batch", payload)
					if status != http.StatusOK {
						t.Errorf("batch status = %d (%s)", status, body)
						return
					}
					wantBody, err := json.Marshal(&want)
					if err != nil {
						t.Error(err)
						return
					}
					if !bytes.Equal(body, append(wantBody, '\n')) {
						t.Errorf("batch response diverges from reference:\n got %s\nwant %s\n", body, wantBody)
						return
					}
					for _, j := range idx {
						tl.loops[outcome(expected[j])]++
					}
				} else {
					payload, err := json.Marshal(&specs[k])
					if err != nil {
						t.Error(err)
						return
					}
					status, body := post(&tl, "compile", payload)
					if status != expected[k].Status {
						t.Errorf("spec %d status = %d, want %d (%s)", k, status, expected[k].Status, body)
						return
					}
					if want := expectBody(expected[k]); !bytes.Equal(body, want) {
						t.Errorf("spec %d response diverges from reference:\n got %s\nwant %s", k, body, want)
						return
					}
					tl.loops[outcome(expected[k])]++
				}
			}
			mu.Lock()
			for k, v := range tl.requests {
				merged.requests[k] += v
			}
			for k, v := range tl.loops {
				merged.loops[k] += v
			}
			merged.shed += tl.shed
			mu.Unlock()
		}(c)
	}
	wg.Wait()

	// Reconcile against /metrics.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	series := parseExposition(t, string(text))

	for k, want := range merged.requests {
		name := fmt.Sprintf("mschedd_requests_total{endpoint=%q,code=%q}", k[0], k[1])
		if got := series[name]; got != want {
			t.Errorf("%s = %d, server-side; client tallied %d", name, got, want)
		}
	}
	for k, want := range merged.loops {
		name := fmt.Sprintf("mschedd_loops_total{outcome=%q}", k)
		if got := series[name]; got != want {
			t.Errorf("%s = %d, server-side; client tallied %d", name, got, want)
		}
	}
	if got := series["mschedd_shed_total"]; got != merged.shed {
		t.Errorf("mschedd_shed_total = %d, client saw %d sheds", got, merged.shed)
	}

	st := s.CacheStats()
	if st.Misses != cacheKeys {
		t.Errorf("cache misses = %d, want exactly %d (one per distinct key)", st.Misses, cacheKeys)
	}
	compiles := merged.loops["ok"] + merged.loops["degraded"]
	if got := st.Hits + st.Inflight + st.Misses; got != compiles {
		t.Errorf("cache hits+joins+misses = %d, want %d (every served schedule accounted for)", got, compiles)
	}
	if series["mschedd_cache_hits_total"] != st.Hits ||
		series["mschedd_cache_misses_total"] != st.Misses {
		t.Errorf("/metrics cache counters (hits=%d misses=%d) disagree with Stats() (%+v)",
			series["mschedd_cache_hits_total"], series["mschedd_cache_misses_total"], st)
	}
	if got := series["mschedd_in_flight"]; got != 0 {
		t.Errorf("mschedd_in_flight = %d after the soak, want 0", got)
	}
}

// parseExposition reads "name{labels} value" lines into a map, skipping
// comments and non-integer samples.
func parseExposition(t *testing.T, text string) map[string]int64 {
	t.Helper()
	series := make(map[string]int64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			continue // histogram sum etc.
		}
		series[line[:i]] = v
	}
	return series
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modsched"
	"modsched/internal/codegen"
	"modsched/internal/core"
	"modsched/internal/experiments"
	"modsched/internal/machine"
	"modsched/internal/server"
)

// This file runs the serve workload: an in-process mschedd (server.New
// with the default Config) on a loopback listener, driven by a closed
// loop of serveClients clients over serveClients keep-alive connections.

// daemon is one in-process server and the client transport that talks
// to it.
type daemon struct {
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

// startDaemon serves server.New(server.Config{}) on 127.0.0.1. wrap, when
// not nil, wraps the handler; tests use it to plant faults.
func startDaemon(wrap func(http.Handler) http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := server.New(server.Config{}).Handler()
	if wrap != nil {
		h = wrap(h)
	}
	d := &daemon{
		hs:     &http.Server{Handler: h},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the server down and waits for it to stop.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	d.client.CloseIdleConnections()
	return err
}

// post sends one /compile request and reads the whole reply.
func (d *daemon) post(body []byte) (int, []byte, error) {
	resp, err := d.client.Post(d.url+"/compile", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data, err
}

// warmUp sends the warm-up requests over both connections.
func (d *daemon) warmUp(bodies [][]byte) error {
	errs := make([]error, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bodies); i += serveClients {
				status, _, err := d.post(bodies[i])
				if err == nil && status != http.StatusOK {
					err = fmt.Errorf("warm-up request %d: status %d", i, status)
				}
				if err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// promSample is one /metrics scrape: series text -> value.
type promSample map[string]float64

func (d *daemon) scrape() (promSample, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := promSample{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: malformed line %q", line)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sum adds every series of one family whose labels contain all of the
// given label pairs.
func (p promSample) sum(family string, labels ...string) float64 {
	var total float64
	for series, v := range p {
		name, lbl, _ := strings.Cut(series, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(lbl, l)
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta is after minus before for one family and label filter.
func delta(before, after promSample, family string, labels ...string) float64 {
	return after.sum(family, labels...) - before.sum(family, labels...)
}

// clientPhase is the outcome of one closed-loop run of the clients.
// Every slot is indexed by the request's position in the stream.
type clientPhase struct {
	n        int
	elapsed  time.Duration
	lat      []time.Duration
	first    []bool
	status   []int
	hash     [][sha256.Size]byte
	errs     []error
	allocs   uint64
	rtCycles uint64
	rtShare  float64
	before   promSample
	after    promSample
	// peakRSS is the phase's peak resident set.
	peakRSS float64
}

// runClients drives the stream through d until the time is up. With a
// tracer, every request is spanned from the client's side.
func runClients(d *daemon, in *serveInputs, seconds float64, tr *tracer) (*clientPhase, error) {
	before, err := d.scrape()
	if err != nil {
		return nil, err
	}
	ns := len(in.stream)
	p := &clientPhase{
		lat: make([]time.Duration, ns), first: make([]bool, ns), status: make([]int, ns),
		hash: make([][sha256.Size]byte, ns), errs: make([]error, ns), before: before,
	}
	seen := make([]atomic.Bool, len(in.pool))
	var next atomic.Int64
	var exhausted atomic.Bool

	rss := startRSSWindows()
	rt0 := sampleRuntime()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				if i >= ns {
					exhausted.Store(true)
					return
				}
				pi := in.stream[i]
				p.first[i] = seen[pi].CompareAndSwap(false, true)
				sp := tr.begin("server.roundtrip", int64(i), -1)
				t0 := time.Now()
				status, body, err := d.post(in.bodies[pi])
				p.lat[i] = time.Since(t0)
				tr.end(sp)
				p.status[i], p.errs[i] = status, err
				if err == nil && status == http.StatusOK {
					p.hash[i] = sha256.Sum256(body)
				}
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(start)
	_, p.peakRSS = rss.finish()
	p.allocs = mallocs() - m0
	p.rtCycles, p.rtShare = runtimeDelta(rt0, sampleRuntime())
	p.n = min(int(next.Load()), ns)
	if exhausted.Load() {
		return nil, fmt.Errorf("request stream exhausted after %d requests in %.1fs; raise serveFreshPerSecond", ns, p.elapsed.Seconds())
	}
	if p.after, err = d.scrape(); err != nil {
		return nil, err
	}
	return p, nil
}

// reconcile checks the client's tally against the server's /metrics
// exactly, the way scripts/server_smoke.sh does.
func (p *clientPhase) reconcile(r *report) {
	var answered, shed, ok int
	for i := 0; i < p.n; i++ {
		switch {
		case p.errs[i] != nil:
			r.fail("request %d: %v", i, p.errs[i])
		case p.status[i] == http.StatusTooManyRequests:
			shed++
			answered++
			r.fail("request %d: shed (429)", i)
		case p.status[i] != http.StatusOK:
			answered++
			r.fail("request %d: status %d", i, p.status[i])
		default:
			answered++
			ok++
		}
	}
	b, a := p.before, p.after
	check := func(what string, client int, server float64) {
		if float64(client) != server {
			r.fail("reconcile: %s: client counted %d, /metrics %v", what, client, server)
		}
	}
	check("requests sent vs mschedd_requests_total", answered, delta(b, a, "mschedd_requests_total", `endpoint="compile"`))
	check("requests compiled vs mschedd_loops_total", answered-shed, delta(b, a, "mschedd_loops_total"))
	check("429s vs mschedd_shed_total", shed, delta(b, a, "mschedd_shed_total"))
	reached := delta(b, a, "mschedd_loops_total", `outcome="ok"`) + delta(b, a, "mschedd_loops_total", `outcome="degraded"`)
	check("200s vs compiles reaching the cache", ok, reached)
	lookups := delta(b, a, "mschedd_cache_hits_total") + delta(b, a, "mschedd_cache_misses_total") +
		delta(b, a, "mschedd_cache_inflight_joins_total")
	check("cache hits+misses+inflight joins vs compiles reaching the cache", ok, lookups)
}

// rendered is the local rendering of one request.
type rendered struct {
	body  []byte
	sched *core.Schedule
	deg   *core.Degradation
	kern  *codegen.Kernel
	hit   bool
}

// pipeline mirrors the served compile path (compileOne in
// internal/server) call for call: ParseLoop, ComputeMII,
// ListSchedules, CompileBestEffortCached, GenerateKernel, Kernel.String
// and the JSON encoding. With a nil cache it is the uncached reference
// the oracle compares served bodies with; with a tracer it spans each
// call.
type pipeline struct {
	mach  *machine.Machine
	cache *modsched.CompileCache
	tr    *tracer
}

func (p *pipeline) render(src string, id int64) (*rendered, error) {
	tr, m, opts := p.tr, p.mach, modsched.DefaultOptions()
	root := tr.begin("request", id, -1)
	defer tr.end(root)

	sp := tr.begin("looplang.parse", id, root)
	loop, err := modsched.ParseLoop(src, m)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("mii.compute", id, root)
	bounds, err := modsched.ComputeMII(loop, m, opts.DelayModel)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("listsched.schedule", id, root)
	ls, err := modsched.ListSchedules(loop, m, opts.DelayModel)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	var hits0 int64
	if p.cache != nil {
		hits0 = p.cache.Stats().Hits
	}
	sp = tr.begin("core.compile", id, root)
	sched, deg, err := modsched.CompileBestEffortCached(context.Background(), p.cache, loop, m, opts)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out := &rendered{sched: sched, deg: deg}
	if p.cache != nil {
		out.hit = p.cache.Stats().Hits > hits0
		if out.hit {
			tr.rename(sp, "schedcache.hit")
		}
	}
	sp = tr.begin("codegen.kernel", id, root)
	kern, err := modsched.GenerateKernel(sched)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.kern = kern
	sp = tr.begin("codegen.render", id, root)
	text := kern.String()
	tr.end(sp)

	resp := &server.CompileResponse{
		Name:           loop.Name,
		Ops:            loop.NumRealOps(),
		Edges:          len(loop.Edges),
		ResMII:         bounds.ResMII,
		MII:            bounds.MII,
		NonTrivialSCCs: len(bounds.NonTrivialSCCs),
		ListSL:         ls.Length,
		II:             sched.II,
		SL:             sched.Length,
		Stages:         sched.StageCount(),
		SchedSteps:     sched.Stats.SchedSteps,
		Kernel:         text,
	}
	if deg != nil && deg.Degraded() {
		info := &server.DegradationInfo{Stage: deg.Stage, Message: deg.String()}
		for _, f := range deg.Failures {
			info.Failures = append(info.Failures, server.StageFailureInfo{Stage: f.Stage, Error: f.Err.Error()})
		}
		resp.Degradation = info
	}
	sp = tr.begin("json.encode", id, root)
	data, err := json.Marshal(resp)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	out.body = append(data, '\n')
	return out, nil
}

// setupServe builds the inputs and a warmed-up daemon.
func setupServe(seed int64, seconds float64, wrap func(http.Handler) http.Handler) (*serveInputs, *daemon, error) {
	in, err := makeServeInputs(seed, seconds)
	if err != nil {
		return nil, nil, err
	}
	d, err := startDaemon(wrap)
	if err != nil {
		return nil, nil, err
	}
	if err := d.warmUp(in.warmup); err != nil {
		return nil, nil, errors.Join(err, d.close())
	}
	return in, d, nil
}

// checkServed renders every loop the phases served, plus the quality
// population, through the uncached reference pipeline, then compares
// each 200 body with its loop's rendering byte for byte (by SHA-256).
func checkServed(r *report, in *serveInputs, phases ...*clientPhase) {
	need := make([]bool, len(in.pool))
	inQuality := make([]bool, len(in.pool))
	for _, pi := range in.qualityPool {
		need[pi], inQuality[pi] = true, true
	}
	for _, p := range phases {
		for i := 0; i < p.n; i++ {
			need[in.stream[i]] = true
		}
	}
	var idx []int
	for pi, ok := range need {
		if ok {
			idx = append(idx, pi)
		}
	}
	want := make([][sha256.Size]byte, len(in.pool))
	qs := make([]loopQuality, len(in.pool))
	errs := make([]error, len(in.pool))
	ref := &pipeline{mach: in.mach}
	_ = experiments.ParallelFor(context.Background(), len(idx), oracleWorkers, func(_ context.Context, j int) error {
		pi := idx[j]
		out, err := ref.render(in.pool[pi], int64(pi))
		if err == nil {
			want[pi] = sha256.Sum256(out.body)
			if inQuality[pi] {
				qs[pi], err = measureQuality(out.sched, out.kern)
			}
		}
		errs[pi] = err
		return nil
	})
	var tot qualityTotals
	for _, pi := range idx {
		switch {
		case errs[pi] != nil:
			r.fail("local rendering of loop %d: %v", pi, errs[pi])
		case inQuality[pi]:
			tot.add(qs[pi])
		}
	}
	for _, p := range phases {
		for i := 0; i < p.n; i++ {
			pi := in.stream[i]
			if p.errs[i] == nil && p.status[i] == http.StatusOK && errs[pi] == nil && p.hash[i] != want[pi] {
				r.fail("request %d (loop %d): served body differs from the local rendering", i, pi)
			}
		}
	}
	tot.report(r)
	r.note("oracle: %d distinct loops rendered locally; quality over %d loops (hot set and first %d fresh)",
		len(idx), tot.loops, serveQualityFresh)
}

// firstRepeat splits the phase's latencies by first sighting.
func (p *clientPhase) firstRepeat() (all, first, repeat []time.Duration) {
	for i := 0; i < p.n; i++ {
		all = append(all, p.lat[i])
		if p.first[i] {
			first = append(first, p.lat[i])
		} else {
			repeat = append(repeat, p.lat[i])
		}
	}
	return all, first, repeat
}

// runServeTimed is the untraced run.
func runServeTimed(r *report, in *serveInputs, d *daemon, seconds float64) error {
	p, err := runClients(d, in, seconds, nil)
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", p.peakRSS)
	r.attempted = p.n
	all, first, repeat := p.firstRepeat()
	r.set("loops_per_s", float64(p.n)/p.elapsed.Seconds())
	r.set("latency_p50_ms", ms(quantile(all, 0.5)))
	r.set("latency_p99_ms", ms(quantile(all, 0.99)))
	r.set("first_p50_ms", ms(quantile(first, 0.5)))
	r.set("repeat_p50_ms", ms(quantile(repeat, 0.5)))
	r.set("allocs_per_loop", float64(p.allocs)/float64(max(p.n, 1)))
	r.note("timed %d requests in %.3fs (%d first, %d repeat; p99 over %d); %d GC cycles, GC CPU share %.3f",
		p.n, p.elapsed.Seconds(), len(first), len(repeat), len(all), p.rtCycles, p.rtShare)
	b, a := p.before, p.after
	r.note("server cache: %v hits, %v misses, %v inflight joins, %v evictions",
		delta(b, a, "mschedd_cache_hits_total"), delta(b, a, "mschedd_cache_misses_total"),
		delta(b, a, "mschedd_cache_inflight_joins_total"), delta(b, a, "mschedd_cache_evictions_total"))
	p.reconcile(r)
	checkServed(r, in, p)
	return nil
}

// runServeTraced is the traced run: an untraced phase on d, a traced
// phase on a fresh daemon for the same stream, then a replay of the
// traced phase's requests through the public calls compileOne makes,
// with a benchmark-owned cache, each call spanned.
func runServeTraced(r *report, in *serveInputs, d *daemon, seconds float64, tr *tracer, wrap func(http.Handler) http.Handler) error {
	u, err := runClients(d, in, seconds/2, nil)
	if err != nil {
		return err
	}
	u.reconcile(r)
	r.set("runtime.gc_cycles", 1000*float64(u.rtCycles)/float64(max(u.n, 1)))
	r.set("runtime.gc_cpu_share", u.rtShare)

	d2, err := startDaemon(wrap)
	if err != nil {
		return err
	}
	if err := d2.warmUp(in.warmup); err != nil {
		return errors.Join(err, d2.close())
	}
	t, err := runClients(d2, in, seconds/2, tr)
	if cerr := d2.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	t.reconcile(r)
	r.attempted = u.n + t.n

	uPer := u.elapsed.Seconds() / float64(max(u.n, 1))
	tPer := t.elapsed.Seconds() / float64(max(t.n, 1))
	r.set("trace.overhead_s", (tPer-uPer)*float64(t.n))
	r.set("trace.overhead_pct", 100*(tPer/uPer-1))

	b, a := t.before, t.after
	hits, misses := delta(b, a, "mschedd_cache_hits_total"), delta(b, a, "mschedd_cache_misses_total")
	joins := delta(b, a, "mschedd_cache_inflight_joins_total")
	r.set("schedcache.hits", hits)
	r.set("schedcache.misses", misses)
	r.set("schedcache.inflight_joins", joins)
	r.set("schedcache.evictions", delta(b, a, "mschedd_cache_evictions_total"))
	if lookups := hits + misses + joins; lookups > 0 {
		r.set("schedcache.hit_ratio", hits/lookups)
	}
	roundtrip := meanSelfUS(tr.selfTimes(), "server.roundtrip")
	r.set("server.roundtrip_us", roundtrip)
	if cnt := delta(b, a, "mschedd_request_duration_seconds_count"); cnt > 0 {
		req := 1e6 * delta(b, a, "mschedd_request_duration_seconds_sum") / cnt
		r.set("server.request_us", req)
		r.set("server.transport_us", roundtrip-req)
	}
	r.set("server.shed", delta(b, a, "mschedd_shed_total"))
	r.note("untraced phase %d requests in %.3fs, traced phase %d requests in %.3fs",
		u.n, u.elapsed.Seconds(), t.n, t.elapsed.Seconds())

	replayServe(r, in, t.n, tr)
	checkServed(r, in, u, t)
	return nil
}

// replayServe replays the first n requests of the stream in one
// goroutine through the spanned pipeline.
func replayServe(r *report, in *serveInputs, n int, tr *tracer) {
	rp := &pipeline{mach: in.mach, cache: modsched.NewCompileCache(0), tr: tr}
	var misses []compiled
	for i := 0; i < n; i++ {
		out, err := rp.render(in.pool[in.stream[i]], int64(i))
		if err != nil {
			r.fail("replay request %d: %v", i, err)
			continue
		}
		if !out.hit {
			misses = append(misses, compiled{sched: out.sched, deg: out.deg})
		}
	}
	lts := tr.selfTimes()
	// core.compile_us is the mean cached compile per request, hits and
	// misses together; schedcache.lookup_us is the mean hit.
	var calls int
	var total time.Duration
	for _, name := range []string{"core.compile", "schedcache.hit"} {
		if lt := lts[name]; lt != nil {
			calls += lt.calls
			total += lt.total
		}
	}
	if calls > 0 {
		r.set("core.compile_us", us(total)/float64(calls))
	}
	r.set("schedcache.lookup_us", meanSelfUS(lts, "schedcache.hit"))
	r.set("looplang.parse_us", meanSelfUS(lts, "looplang.parse"))
	r.set("mii.compute_us", meanSelfUS(lts, "mii.compute"))
	r.set("listsched.schedule_us", meanSelfUS(lts, "listsched.schedule"))
	r.set("codegen.kernel_us", meanSelfUS(lts, "codegen.kernel"))
	r.set("codegen.render_us", meanSelfUS(lts, "codegen.render"))
	searchCounters(r, misses)
	r.note("replayed %d requests (%d cache misses); self time by span:\n%s", n, len(misses), selfTable(lts))
	serveAllocs(r, in, min(n, serveAllocRequests))
}

// serveAllocRequests bounds the allocation passes of a traced serve run.
const serveAllocRequests = 2000

// serveAllocs measures heap allocations per request of each layer's
// entry point over the first n requests, one whole pass per layer, with
// a fresh benchmark-owned cache.
func serveAllocs(r *report, in *serveInputs, n int) {
	if n == 0 {
		return
	}
	m, opts := in.mach, modsched.DefaultOptions()
	per := func(a uint64) float64 { return float64(mallocs()-a) / float64(n) }
	loops := make([]*modsched.Loop, n)
	a := mallocs()
	for i := range loops {
		loops[i], _ = modsched.ParseLoop(in.pool[in.stream[i]], m)
	}
	r.set("looplang.allocs_per_loop", per(a))
	a = mallocs()
	for _, l := range loops {
		_, _ = modsched.ComputeMII(l, m, opts.DelayModel)
	}
	r.set("mii.allocs_per_loop", per(a))
	cache := modsched.NewCompileCache(0)
	scheds := make([]*core.Schedule, n)
	a = mallocs()
	for i, l := range loops {
		scheds[i], _, _ = modsched.CompileBestEffortCached(context.Background(), cache, l, m, opts)
	}
	r.set("core.allocs_per_loop", per(a))
	a = mallocs()
	for _, s := range scheds {
		if k, err := modsched.GenerateKernel(s); err == nil {
			_ = k.String()
		}
	}
	r.set("codegen.allocs_per_loop", per(a))
}

package schedcache

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"modsched/internal/core"
	"modsched/internal/ir"
	"modsched/internal/machine"
)

// TestConcurrentHammerAccounting drives one cache from many goroutines
// with overlapping keys — the access pattern of a compile server under
// load — and checks the exact traffic accounting that makes the /metrics
// counters trustworthy:
//
//   - every distinct key compiles exactly once (Misses == #keys): a
//     second miss for a key can only happen if the entry or the flight
//     was lost, and errors never occur here;
//   - every other call is a hit or an in-flight join, so
//     Hits + Inflight == calls - #keys;
//   - schedules returned to different callers never alias: each caller
//     owns a deep copy, so a server handing results to concurrent
//     requests cannot let one response's consumer corrupt another's.
//
// Run with -race: the interleavings are the point.
func TestConcurrentHammerAccounting(t *testing.T) {
	m := machine.Cydra5()
	opts := core.DefaultOptions()
	const (
		goroutines = 8
		rounds     = 24
		keys       = 4
	)
	loops := make([]*ir.Loop, keys)
	for i := range loops {
		loops[i] = testLoop(t, m, "hammer", i+1)
	}

	c := New(64)
	type got struct {
		key   int
		sched *core.Schedule
	}
	results := make([][]got, goroutines)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				// Stagger the key order per goroutine so every pair of
				// goroutines overlaps on every key at some point.
				k := (r + g) % keys
				l := loops[k]
				s, _, err := c.Do(l, m, opts, compileDirect(l, m, opts))
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				results[g] = append(results[g], got{key: k, sched: s})
			}
		}(g)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}

	st := c.Stats()
	calls := int64(goroutines * rounds)
	if st.Misses != keys {
		t.Errorf("Misses = %d, want exactly %d (one compile per distinct key)", st.Misses, keys)
	}
	if st.Hits+st.Inflight != calls-keys {
		t.Errorf("Hits (%d) + Inflight (%d) = %d, want calls - keys = %d",
			st.Hits, st.Inflight, st.Hits+st.Inflight, calls-keys)
	}
	if st.Evictions != 0 {
		t.Errorf("Evictions = %d, want 0 (capacity exceeds key count)", st.Evictions)
	}
	if c.Len() != keys {
		t.Errorf("Len = %d, want %d", c.Len(), keys)
	}

	// No two calls — same goroutine or different — may share a *Schedule
	// or the backing array of one of its slices.
	seen := make(map[*core.Schedule]bool)
	seenArrays := make(map[*int]bool)
	perKey := make(map[int]*core.Schedule)
	for g := range results {
		for _, r := range results[g] {
			if seen[r.sched] {
				t.Fatalf("two calls returned the same *Schedule %p", r.sched)
			}
			seen[r.sched] = true
			for name, xs := range map[string][]int{"Times": r.sched.Times, "SCCSizes": r.sched.SCCSizes} {
				if len(xs) == 0 {
					t.Fatalf("schedule with empty %s", name)
				}
				if p := &xs[0]; seenArrays[p] {
					t.Fatalf("two schedules share a %s backing array %p", name, p)
				} else {
					seenArrays[p] = true
				}
			}
			// All copies of one key must agree on the schedule content.
			if first, ok := perKey[r.key]; !ok {
				perKey[r.key] = r.sched
			} else if first.II != r.sched.II || first.Length != r.sched.Length {
				t.Fatalf("key %d: divergent schedules II=%d/%d SL=%d/%d",
					r.key, first.II, r.sched.II, first.Length, r.sched.Length)
			}
		}
	}
}

// TestConcurrentMissesCoalesce pins the singleflight behavior
// deterministically: while one compile is in progress, every concurrent
// Do for the same key joins the flight (Inflight) instead of compiling
// again. The master compile blocks until the cache reports that all the
// latecomers have joined, so the schedule of counters is forced, not
// left to the race.
func TestConcurrentMissesCoalesce(t *testing.T) {
	m := machine.Cydra5()
	l := testLoop(t, m, "coalesce", 3)
	opts := core.DefaultOptions()
	c := New(8)

	const latecomers = 7
	inCompile := make(chan struct{})
	var wg sync.WaitGroup
	scheds := make([]*core.Schedule, latecomers+1)

	// Master: registers the flight, then blocks inside compile until every
	// latecomer is parked on it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s, _, err := c.Do(l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
			close(inCompile)
			deadline := time.Now().Add(30 * time.Second)
			for parkedJoins() < latecomers {
				if time.Now().After(deadline) {
					t.Error("latecomers never joined the flight")
					break
				}
				time.Sleep(100 * time.Microsecond)
			}
			return compileDirect(l, m, opts)()
		})
		if err != nil {
			t.Errorf("master: %v", err)
			return
		}
		scheds[0] = s
	}()

	<-inCompile
	for i := 0; i < latecomers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, _, err := c.Do(l, m, opts, func() (*core.Schedule, *core.Degradation, error) {
				t.Error("latecomer must join the flight, not compile")
				return compileDirect(l, m, opts)()
			})
			if err != nil {
				t.Errorf("latecomer %d: %v", i, err)
				return
			}
			scheds[i+1] = s
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	st := c.Stats()
	if st.Misses != 1 || st.Inflight != latecomers || st.Hits != 0 {
		t.Errorf("stats = %+v, want exactly 1 miss, %d inflight joins, 0 hits", st, latecomers)
	}
	for i, s := range scheds {
		for j := i + 1; j < len(scheds); j++ {
			if s == scheds[j] {
				t.Fatalf("callers %d and %d share a *Schedule", i, j)
			}
			if &s.Times[0] == &scheds[j].Times[0] {
				t.Fatalf("callers %d and %d share a Times array", i, j)
			}
		}
	}
}

// parkedJoins counts the goroutines parked in Cache.Do on a flight's done
// channel, from a dump of every goroutine's stack. Stats counts a join
// only once it completes, so it cannot show one in progress.
func parkedJoins() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	n := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "schedcache.(*Cache).Do(") {
			n++
		}
	}
	return n
}

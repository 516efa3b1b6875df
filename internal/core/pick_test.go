package core

import (
	"testing"

	"modsched/internal/loopgen"
	"modsched/internal/machine"
	"modsched/internal/mii"
)

// pickState builds a ready-to-pick state for a generated loop: problem,
// state at the loop's MII-ish II, and the HeightR priority vector.
func pickState(tb testing.TB, nops int, seed int64) *state {
	tb.Helper()
	m := machine.Cydra5()
	cfg := loopgen.DefaultConfig()
	cfg.N = 40
	cfg.Seed = seed
	loops, err := loopgen.Generate(cfg, m)
	if err != nil {
		tb.Fatal(err)
	}
	// Pick the generated loop closest to the requested size.
	best := loops[0]
	for _, l := range loops {
		if abs(l.NumOps()-nops) < abs(best.NumOps()-nops) {
			best = l
		}
	}
	p, err := newProblem(nil, best, m, DefaultOptions(), new(scratch))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := mii.Compute(best, m, p.delays, nil)
	if err != nil {
		tb.Fatal(err)
	}
	s := p.scratch.newState(p, res.MII)
	h, err := p.heightR(s.ii)
	if err != nil {
		tb.Fatal(err)
	}
	s.prio = h
	return s
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// drainScan empties the state using the reference linear scan.
func drainScan(s *state) []int {
	var order []int
	for {
		op := s.highestPriorityOperation()
		if op < 0 {
			return order
		}
		s.times[op] = 0
		order = append(order, op)
	}
}

// drainHeap empties the state using the production ready heap.
func drainHeap(s *state) []int {
	s.readyInit()
	var order []int
	for {
		op := s.readyPop()
		if op < 0 {
			return order
		}
		s.times[op] = 0
		order = append(order, op)
	}
}

func resetTimes(s *state) {
	for i := range s.times {
		s.times[i] = -1
	}
}

// TestHeapMatchesScan verifies the heap realizes exactly the scan's total
// order — (priority desc, index asc) — including across evictions, which
// is what guarantees the heap picker produces bit-identical schedules.
func TestHeapMatchesScan(t *testing.T) {
	for _, size := range []int{6, 12, 40, 120} {
		s := pickState(t, size, int64(size)*7+1)
		n := s.p.loop.NumOps()

		want := drainScan(s)
		resetTimes(s)
		got := drainHeap(s)
		if len(want) != n || len(got) != n {
			t.Fatalf("size %d: drained %d/%d of %d ops", size, len(want), len(got), n)
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("size %d: pick %d differs: scan chose %d, heap chose %d", size, i, want[i], got[i])
			}
		}

		// Interleave evictions: after every third pick, evict the op picked
		// two steps earlier and check the two pickers keep agreeing.
		resetTimes(s)
		s.readyInit()
		var picked []int
		for step := 0; ; step++ {
			fromScan := s.highestPriorityOperation()
			fromHeap := s.readyPop()
			if fromScan != fromHeap {
				t.Fatalf("size %d (evictions): step %d: scan chose %d, heap chose %d", size, step, fromScan, fromHeap)
			}
			if fromHeap < 0 {
				break
			}
			s.times[fromHeap] = 0
			picked = append(picked, fromHeap)
			if step%3 == 2 && len(picked) >= 2 {
				victim := picked[len(picked)-2]
				if s.times[victim] != -1 {
					s.times[victim] = -1
					s.readyPush(victim)
				}
			}
			if step > 4*n {
				t.Fatalf("size %d: eviction interleave does not converge", size)
			}
		}
	}
}

// BenchmarkPickOp compares the two pickers on a full drain of the loop:
// the O(n)-per-pick reference scan against the O(log n) ready heap.
func BenchmarkPickOp(b *testing.B) {
	for _, size := range []int{12, 40, 160} {
		s := pickState(b, size, int64(size))
		n := s.p.loop.NumOps()
		b.Run(benchName("scan", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resetTimes(s)
				if got := len(drainScan(s)); got != n {
					b.Fatalf("drained %d of %d", got, n)
				}
			}
		})
		b.Run(benchName("heap", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resetTimes(s)
				if got := len(drainHeap(s)); got != n {
					b.Fatalf("drained %d of %d", got, n)
				}
			}
		})
	}
}

func benchName(kind string, n int) string {
	return kind + "/" + itoa(n) + "ops"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

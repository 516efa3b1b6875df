package mii

import (
	"fmt"

	"modsched/internal/graph"
	"modsched/internal/ir"
	"modsched/internal/machine"
	"modsched/internal/scherr"
)

// Reference implementations of the analysis without a shared Deps: each
// call builds and decomposes its own graph, and the real-op SCC
// statistics come from the graph induced on the real operations.
// deps_test.go checks the shared analysis against them.

// refDepGraph builds the dependence graph over all loop operations.
func refDepGraph(l *ir.Loop) *graph.Graph {
	g := graph.New(l.NumOps())
	for _, e := range l.Edges {
		g.AddEdge(e.From, e.To)
	}
	return g
}

// RefRealSCCs computes SCC statistics over the real operations from the
// graph induced on them (every edge touching START or STOP dropped).
func RefRealSCCs(l *ir.Loop) (sizes []int, nonTrivial [][]int) {
	start, stop := l.Start(), l.Stop()
	g := graph.New(l.NumOps())
	for _, e := range l.Edges {
		if e.From == start || e.To == stop || e.From == stop || e.To == start {
			continue
		}
		g.AddEdge(e.From, e.To)
	}
	for _, comp := range g.SCCs() {
		if len(comp) == 1 && (comp[0] == start || comp[0] == stop) {
			continue
		}
		sizes = append(sizes, len(comp))
		if len(comp) > 1 {
			nonTrivial = append(nonTrivial, comp)
		}
	}
	return sizes, nonTrivial
}

// refSelfEdgeRecMII is selfEdgeRecMII by a scan over every edge.
func refSelfEdgeRecMII(l *ir.Loop, delays []int, op int) (int, error) {
	rec := 0
	for ei, e := range l.Edges {
		if e.From != op || e.To != op {
			continue
		}
		d := delays[ei]
		if e.Distance == 0 {
			if d > 0 {
				return 0, fmt.Errorf("mii: loop %s: op %d has zero-distance self dependence with delay %d: %w",
					l.Name, op, d, scherr.ErrNoSchedule)
			}
			continue
		}
		if d > 0 {
			if r := (d + e.Distance - 1) / e.Distance; r > rec {
				rec = r
			}
		}
	}
	return rec, nil
}

// RefRecurrenceMII is RecurrenceMII over a graph built and decomposed
// for this call alone.
func RefRecurrenceMII(l *ir.Loop, delays []int, start int, c *Counters) (int, error) {
	ws := &Scratch{}
	maxII := maxIIBound(delays)
	running := max(start, 1)
	for _, scc := range refDepGraph(l).SCCs() {
		var r int
		var err error
		if len(scc) == 1 {
			r, err = refSelfEdgeRecMII(l, delays, scc[0])
		} else {
			r, err = searchSCC(nil, l, delays, scc, running, maxII, c, ws)
		}
		if err != nil {
			return 0, err
		}
		running = max(running, r)
	}
	return running, nil
}

// RefCompute is Compute built from the reference pieces above.
func RefCompute(l *ir.Loop, m *machine.Machine, delays []int, c *Counters) (*Result, error) {
	resMII, err := ResMII(l, m, c)
	if err != nil {
		return nil, err
	}
	miiVal, err := RefRecurrenceMII(l, delays, resMII, c)
	if err != nil {
		return nil, err
	}
	res := &Result{ResMII: resMII, MII: miiVal}
	res.SCCSizes, res.NonTrivialSCCs = RefRealSCCs(l)
	return res, nil
}

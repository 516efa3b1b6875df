package core

import "fmt"

// heightR solves the implicit equations of Figure 5a for a given II:
//
//	HeightR(STOP) = 0
//	HeightR(P)    = max over successors Q of
//	                HeightR(Q) + Delay(P,Q) - II*Distance(P,Q)
//
// Operations are processed one strongly connected component at a time, in
// reverse topological order of the condensation (sinks first, so every
// external successor is final before a component is entered); within a
// component the equations are iterated to fixpoint, which converges
// because at II >= RecMII every circuit has non-positive weight. The
// relaxation count feeds the Table 4 complexity measurement.
//
// Ops with no path to STOP (impossible in well-formed loops, where STOP
// succeeds everything) would keep height 0.
//
// Only the edge weights Delay - II*Distance depend on II; the graph
// topology — and therefore the SCC condensation — is fixed, so every II
// attempt reuses the problem's dependence analysis (p.deps). The height
// vector itself lives in the scratch.
func (p *problem) heightR(ii int) ([]int, error) {
	p.scratch.h = resetInts(p.scratch.h, p.loop.NumOps(), 0)
	h := p.scratch.h

	relax := func(v int) bool {
		changed := false
		for _, ei := range p.deps.Succs[v] {
			e := p.loop.Edges[ei]
			p.counters.HeightRRelax++
			cand := h[e.To] + p.delays[ei] - ii*e.Distance
			if cand > h[v] {
				h[v] = cand
				changed = true
			}
		}
		return changed
	}

	// Reverse topological order: successors' components come first.
	for _, comp := range p.deps.SCCs {
		if len(comp) == 1 && !p.deps.SelfEdge[comp[0]] {
			relax(comp[0])
			continue
		}
		// Iterate within the SCC until fixpoint; bound the sweeps to
		// detect positive cycles (II below RecMII — caller bug).
		for sweep := 0; ; sweep++ {
			changed := false
			for _, v := range comp {
				if relax(v) {
					changed = true
				}
			}
			if !changed {
				break
			}
			if sweep > len(comp)+2 {
				return nil, fmt.Errorf("core: %w: HeightR diverges at II=%d (positive-weight recurrence circuit; II below RecMII?)", ErrInternal, ii)
			}
		}
	}
	return h, nil
}

// depthPriority is the ablation priority: heights computed with the
// distance terms dropped (inter-iteration edges ignored), i.e. the plain
// acyclic list-scheduling height over the distance-0 subgraph. It is
// II-independent and cached per problem.
func (p *problem) depthPriority() []int {
	if p.depthPrio != nil {
		return p.depthPrio
	}
	n := p.loop.NumOps()
	h := make([]int, n)
	p.depthPrio = h
	// Topological order of the distance-0 subgraph (Kahn). Any order
	// yields the same heights: each is a longest path to the sinks.
	indeg := make([]int, n)
	for _, e := range p.loop.Edges {
		if e.Distance == 0 {
			indeg[e.To]++
		}
	}
	order := make([]int, 0, n)
	for v, d := range indeg {
		if d == 0 {
			order = append(order, v)
		}
	}
	for i := 0; i < len(order); i++ {
		for _, ei := range p.deps.Succs[order[i]] {
			if e := p.loop.Edges[ei]; e.Distance == 0 {
				indeg[e.To]--
				if indeg[e.To] == 0 {
					order = append(order, e.To)
				}
			}
		}
	}
	if len(order) < n {
		// A distance-0 cycle is invalid; fall back to zero heights (the
		// scheduler will still be correct, only slower).
		return h
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		for _, ei := range p.deps.Succs[v] {
			e := p.loop.Edges[ei]
			if e.Distance != 0 {
				continue
			}
			if cand := h[e.To] + p.delays[ei]; cand > h[v] {
				h[v] = cand
			}
		}
	}
	return h
}

package mii

import (
	"modsched/internal/graph"
	"modsched/internal/ir"
)

// Deps is the dependence analysis of one loop: the graph topology that
// both the MII bounds (RecMII per SCC, the SCC statistics) and the
// scheduler (HeightR over the condensation, Estart over predecessors)
// read. Only the edge weights Delay - II*Distance depend on the II, so
// one Deps serves every II attempt of a compile. It is immutable after
// NewDeps and safe for concurrent readers.
type Deps struct {
	Loop *ir.Loop
	// Adjacency lists each op's successor and predecessor edge indices,
	// in edge order.
	ir.Adjacency
	// SCCs holds the strongly connected components of the dependence
	// graph (pseudo-ops included) in reverse topological order: every
	// edge between distinct components goes from a later component to an
	// earlier one.
	SCCs [][]int
	// SelfEdge[v] reports whether op v has a reflexive edge.
	SelfEdge []bool
	// g is the op-to-op view of the edges (parallel edges kept), read by
	// Tarjan here and by the circuit enumeration.
	g *graph.Graph
}

// NewDeps builds the dependence analysis of l, which must have passed
// ir.Loop.Validate.
func NewDeps(l *ir.Loop) *Deps {
	n := l.NumOps()
	d := &Deps{
		Loop:      l,
		Adjacency: l.BuildAdjacency(),
		SelfEdge:  make([]bool, n),
		g:         &graph.Graph{N: n, Adj: make([][]int, n)},
	}
	back := make([]int, len(l.Edges))
	o := 0
	for v, succ := range d.Succs {
		adj := back[o : o+len(succ) : o+len(succ)]
		for k, ei := range succ {
			to := l.Edges[ei].To
			adj[k] = to
			if to == v {
				d.SelfEdge[v] = true
			}
		}
		d.g.Adj[v] = adj
		o += len(succ)
	}
	d.SCCs = d.g.SCCs()
	return d
}

// realSCCs returns the SCC statistics over the real operations: every
// component except the START and STOP singletons. ir.Loop.Validate
// forbids edges into START and out of STOP, so neither pseudo-op can lie
// on a circuit and the real-op components are exactly the remaining
// ones. nonTrivial aliases the analysis's storage.
func (d *Deps) realSCCs() (sizes []int, nonTrivial [][]int) {
	start, stop := d.Loop.Start(), d.Loop.Stop()
	sizes = make([]int, 0, len(d.SCCs))
	for _, comp := range d.SCCs {
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

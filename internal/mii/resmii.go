// Package mii computes the minimum initiation interval lower bounds of
// Section 2 of the paper: the resource-constrained ResMII, the
// recurrence-constrained RecMII (via the MinDist matrix, per strongly
// connected component, with the doubling-then-binary-search strategy), and
// MII = max(ResMII, RecMII).
package mii

import (
	"fmt"
	"sort"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

// Counters accumulates the work measurements used by the Table 4
// complexity analysis.
type Counters struct {
	// MinDistInner counts executions of the innermost loop of
	// ComputeMinDist (the Floyd-Warshall relaxation body).
	MinDistInner int64
	// MinDistCalls counts ComputeMinDist invocations.
	MinDistCalls int64
	// ResMIIInspections counts alternative reservation-table inspections
	// during the ResMII computation.
	ResMIIInspections int64
	// ProfileBuilds counts BuildProfile invocations (the one-time
	// II-independent coefficient factoring); ProfileProbes counts per-II
	// evaluations served from a Profile instead of a scalar
	// Floyd-Warshall closure.
	ProfileBuilds int64
	ProfileProbes int64
}

// ResMII computes the resource-constrained lower bound on the II
// (Section 2.1). Operations are taken in increasing order of their number
// of alternatives (degrees of freedom); for each, the alternative that
// minimizes the resulting most-used resource count is selected and its
// usage committed. The final most-used resource count is the ResMII.
func ResMII(l *ir.Loop, m *machine.Machine, c *Counters) (int, error) {
	// entries holds each resource-using op's alternatives.
	entries := make([][]machine.Alternative, 0, l.NumRealOps())
	for _, op := range l.RealOps() {
		oc, ok := m.Opcode(op.Opcode)
		if !ok {
			return 0, fmt.Errorf("mii: loop %s: unknown opcode %q", l.Name, op.Opcode)
		}
		if len(oc.Alternatives) == 1 && len(oc.Alternatives[0].Table.Uses) == 0 {
			continue // resource-free operation
		}
		entries = append(entries, oc.Alternatives)
	}
	// Radix-like stable sort by number of alternatives, ascending; ties
	// keep program order for determinism.
	sort.SliceStable(entries, func(i, j int) bool {
		return len(entries[i]) < len(entries[j])
	})

	usage := make([]int, m.NumResources())
	// perRes is a dense per-alternative usage count, reused across all
	// inspections; touched lists the entries to zero afterwards so the
	// inner loop stays allocation-free regardless of table size.
	perRes := make([]int, m.NumResources())
	touched := make([]machine.Resource, 0, 8)
	maxUsage := 0
	for _, alts := range entries {
		bestAlt, bestPeak := -1, -1
		for ai, alt := range alts {
			if c != nil {
				c.ResMIIInspections++
			}
			peak := maxUsage
			// Peak usage if this alternative were committed.
			touched = touched[:0]
			for _, u := range alt.Table.Uses {
				if perRes[u.Resource] == 0 {
					touched = append(touched, u.Resource)
				}
				perRes[u.Resource]++
			}
			for _, r := range touched {
				if t := usage[r] + perRes[r]; t > peak {
					peak = t
				}
				perRes[r] = 0
			}
			if bestAlt == -1 || peak < bestPeak {
				bestAlt, bestPeak = ai, peak
			}
		}
		alt := alts[bestAlt]
		for _, u := range alt.Table.Uses {
			usage[u.Resource]++
			if usage[u.Resource] > maxUsage {
				maxUsage = usage[u.Resource]
			}
		}
	}
	if maxUsage < 1 {
		maxUsage = 1
	}
	return maxUsage, nil
}

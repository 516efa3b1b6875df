package mii

import (
	"context"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

// Result bundles the lower bounds and structural facts computed before
// scheduling.
type Result struct {
	ResMII int
	// MII is the production lower bound: the recurrence search seeded at
	// ResMII, i.e. max(ResMII, RecMII) without ever probing below ResMII.
	MII int
	// SCCSizes holds the size of every SCC over the real (non-pseudo)
	// operations; NonTrivialSCCs lists those with more than one operation.
	SCCSizes       []int
	NonTrivialSCCs [][]int
}

// Compute runs the Section 2 analysis: ResMII, then the per-SCC
// recurrence search seeded at ResMII. delays must come from ir.Delays.
func Compute(l *ir.Loop, m *machine.Machine, delays []int, c *Counters) (*Result, error) {
	return NewDeps(l).Compute(nil, m, delays, c, nil)
}

// Compute is the package-level Compute over a prebuilt analysis, with
// cancellation and caller-owned MinDist buffers. ctx.Err() is checked
// inside the MinDist closures of the recurrence search (the only
// super-linear part of the analysis); a nil ctx disables the checks. ws
// is reused across the search's feasibility probes; a nil ws uses a
// call-local scratch.
func (d *Deps) Compute(ctx context.Context, m *machine.Machine, delays []int, c *Counters, ws *Scratch) (*Result, error) {
	resMII, err := ResMII(d.Loop, m, c)
	if err != nil {
		return nil, err
	}
	miiVal, err := d.RecurrenceMII(ctx, delays, resMII, c, ws)
	if err != nil {
		return nil, err
	}
	res := &Result{ResMII: resMII, MII: miiVal}
	res.SCCSizes, res.NonTrivialSCCs = d.realSCCs()
	return res, nil
}

// ExactRecMII computes the true recurrence-constrained bound by seeding
// the per-SCC search at 1 (used by the Table 3 statistic
// max(0, RecMII-ResMII); the production MII path never probes below
// ResMII).
func ExactRecMII(l *ir.Loop, delays []int, c *Counters) (int, error) {
	return RecurrenceMII(l, delays, 1, c)
}

package experiments

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"modsched/internal/ir"
	"modsched/internal/machine"
)

// Summary carries the Section 4.3 / Section 5 headline numbers.
type Summary struct {
	Loops int
	// AtMII is the fraction of loops achieving II == MII (paper: 0.96).
	AtMII float64
	// DeltaIIHist histograms II - MII.
	DeltaIIHist map[int]int
	// Dilation is the aggregate execution-time dilation (paper: 0.028 at
	// BudgetRatio 2).
	Dilation float64
	// Inefficiency is scheduling steps per op including failed II
	// attempts (paper: 1.59 at BudgetRatio 2); FinalIneff counts only the
	// successful attempt (paper: 1.03 at BudgetRatio 6).
	Inefficiency, FinalIneff float64
	// CostVsList is the estimated cost of iterative modulo scheduling
	// relative to acyclic list scheduling: scheduling steps plus
	// unschedule steps per op (paper: 2.18x at BudgetRatio 2, counting an
	// unschedule as the cost of a schedule step).
	CostVsList float64
}

// Summarize computes the headline numbers from a corpus run.
func Summarize(cr *CorpusResult) Summary {
	s := Summary{Loops: len(cr.Loops), DeltaIIHist: map[int]int{}}
	atMII := 0
	var steps, unscheds, ops int64
	for _, r := range cr.Loops {
		if r.II == r.MII {
			atMII++
		}
		s.DeltaIIHist[r.II-r.MII]++
		steps += r.StepsTotal
		unscheds += r.Counters.Unschedules
		ops += int64(r.N + 2)
	}
	if s.Loops > 0 {
		s.AtMII = float64(atMII) / float64(s.Loops)
	}
	s.Dilation = cr.AggregateDilation()
	s.Inefficiency = cr.AggregateInefficiency()
	s.FinalIneff = cr.FinalInefficiency()
	if ops > 0 {
		s.CostVsList = float64(steps+unscheds) / float64(ops)
	}
	return s
}

// Format renders the summary with the paper's values.
func (s Summary) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Headline results over %d loops (paper values in parentheses)\n", s.Loops)
	fmt.Fprintf(&b, "  II == MII:                      %5.1f%%  (96%%)\n", 100*s.AtMII)
	fmt.Fprintf(&b, "  execution-time dilation:        %5.1f%%  (2.8%% at BudgetRatio 2)\n", 100*s.Dilation)
	fmt.Fprintf(&b, "  scheduling steps per op:        %5.2f   (1.59 at BudgetRatio 2)\n", s.Inefficiency)
	fmt.Fprintf(&b, "  steps per op, successful II:    %5.2f   (1.03 at BudgetRatio 6)\n", s.FinalIneff)
	fmt.Fprintf(&b, "  cost vs acyclic list scheduling:%5.2fx  (2.18x)\n", s.CostVsList)
	keys := make([]int, 0, len(s.DeltaIIHist))
	for k := range s.DeltaIIHist {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	b.WriteString("  DeltaII histogram:")
	for _, k := range keys {
		fmt.Fprintf(&b, " %d:%d", k, s.DeltaIIHist[k])
	}
	b.WriteString("  (paper: 0:1276 1:32 2:8 >2:11, worst 20)\n")
	return b.String()
}

// ListVsModulo measures, over a corpus, the total scheduling steps of the
// acyclic list-scheduling baseline (always one step per op) against
// iterative modulo scheduling — the Section 5 cost comparison.
func ListVsModulo(loops []*ir.Loop, m *machine.Machine, budgetRatio float64) (listSteps, modSteps, modUnscheds int64, err error) {
	return ListVsModuloWorkers(context.Background(), loops, m, budgetRatio, 0)
}

// ListVsModuloWorkers is ListVsModulo with an explicit worker count.
// Both sides come from one corpus run; the step totals are integer sums
// folded in input order, so they match a sequential run exactly.
func ListVsModuloWorkers(ctx context.Context, loops []*ir.Loop, m *machine.Machine, budgetRatio float64, workers int) (listSteps, modSteps, modUnscheds int64, err error) {
	cr, err := RunCorpusWorkers(ctx, loops, m, budgetRatio, false, workers)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, r := range cr.Loops {
		listSteps += r.ListSteps
		modSteps += r.StepsTotal
		modUnscheds += r.Counters.Unschedules
	}
	return listSteps, modSteps, modUnscheds, nil
}

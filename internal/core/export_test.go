package core

import (
	"sync/atomic"
	"testing"
)

// CountAnalyses counts the analyses (newProblem calls) that compiles run
// until the test ends. It is exported to the package's external tests,
// which observe the served path.
func CountAnalyses(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	testHookNewProblem = func() { n.Add(1) }
	t.Cleanup(func() { testHookNewProblem = nil })
	return n
}

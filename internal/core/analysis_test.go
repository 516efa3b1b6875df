package core_test

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"modsched/internal/core"
	"modsched/internal/kernels"
	"modsched/internal/machine"
	"modsched/internal/server"
)

// TestBestEffortRunsOneAnalysis: a best-effort compile analyzes the loop
// once, whichever stage produces the schedule, and each stage's result —
// Stats included — is the one the stage returns when run alone.
func TestBestEffortRunsOneAnalysis(t *testing.T) {
	m := machine.Cydra5()
	loops, err := kernels.All(m)
	if err != nil {
		t.Fatal(err)
	}
	n := core.CountAnalyses(t)
	ctx := context.Background()
	degraded := 0
	for _, l := range loops {
		for _, maxII := range []int{0, 1} {
			opts := core.DefaultOptions()
			opts.MaxII = maxII
			before := n.Load()
			s, deg, err := core.ModuloScheduleBestEffort(ctx, l, m, opts)
			if err != nil {
				t.Fatalf("%s MaxII=%d: %v", l.Name, maxII, err)
			}
			if got := n.Load() - before; got != 1 {
				t.Errorf("%s MaxII=%d: %d analyses, want 1 (stage %s)", l.Name, maxII, got, deg.Stage)
			}
			var alone *core.Schedule
			switch deg.Stage {
			case core.StageIterative:
				alone, err = core.ModuloScheduleContext(ctx, l, m, opts)
			case core.StageSlack:
				alone, err = core.ModuloScheduleSlackContext(ctx, l, m, opts)
			default:
				degraded++
				alone, err = core.ModuloScheduleAcyclic(ctx, l, m, opts)
			}
			if err != nil {
				t.Fatalf("%s MaxII=%d: %s stage alone: %v", l.Name, maxII, deg.Stage, err)
			}
			if !reflect.DeepEqual(s, alone) {
				t.Errorf("%s MaxII=%d: %s stage differs from its standalone run:\nchain %+v\nalone %+v",
					l.Name, maxII, deg.Stage, s, alone)
			}
		}
	}
	if degraded == 0 {
		t.Fatal("no compile degraded to the acyclic stage")
	}
	t.Logf("%d of %d compiles degraded to the acyclic stage", degraded, 2*len(loops))
}

// TestServedCacheHitRunsNoAnalysis: the served miss analyzes the loop
// once, inside the compile, and the cache hit that follows none at all.
func TestServedCacheHitRunsNoAnalysis(t *testing.T) {
	h := server.New(server.Config{}).Handler()
	n := core.CountAnalyses(t)
	const body = `{"source": "loop daxpy\nxi = aadd xi@1, #8\nx = load xi\nt = fmul a, x\nst: store xi, t\nbrtop\n"}`
	post := func() []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/compile", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	miss := post()
	if got := n.Load(); got != 1 {
		t.Fatalf("cache miss ran %d analyses, want 1", got)
	}
	hit := post()
	if got := n.Load(); got != 1 {
		t.Errorf("cache hit ran %d analyses, want none", got-1)
	}
	if !bytes.Equal(miss, hit) {
		t.Errorf("hit body differs from miss:\n%s\n%s", miss, hit)
	}
}

package server

import (
	"context"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"modsched"
	"modsched/internal/kernels"
	"modsched/internal/loopgen"
	"modsched/internal/looplang"
	"modsched/internal/machine"
	"modsched/internal/schedcache"
)

// boundsCase is one served request and the machine to analyze it on.
type boundsCase struct {
	name string
	req  CompileRequest
	mach *machine.Machine
}

// boundsCases draws the inputs of TestServedBoundsMatchAnalysis: the
// Livermore kernels and the regression loops on the default machine, and
// a seed-13 loopgen draw on every zoo machine, sent inline.
func boundsCases(t *testing.T) []boundsCase {
	t.Helper()
	cydra := machine.Cydra5()
	var cases []boundsCase
	ks, err := kernels.All(cydra)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ks {
		cases = append(cases, boundsCase{k.Name, CompileRequest{Source: looplang.Print(k)}, cydra})
	}
	regs, err := filepath.Glob("../../testdata/regressions/*.loop")
	if err != nil || len(regs) == 0 {
		t.Fatalf("no regression loops (%v)", err)
	}
	for _, path := range regs {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, boundsCase{filepath.Base(path), CompileRequest{Source: string(src)}, cydra})
	}
	zoo, err := filepath.Glob("../../testdata/machines/*.mach")
	if err != nil || len(zoo) == 0 {
		t.Fatalf("no zoo machines (%v)", err)
	}
	for _, path := range zoo {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.ParseMachine(string(src))
		if err != nil {
			t.Fatal(err)
		}
		cfg := loopgen.DefaultConfig()
		cfg.Seed, cfg.N = 13, 12
		loops, err := loopgen.Generate(cfg, m)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range loops {
			cases = append(cases, boundsCase{
				filepath.Base(path) + "/" + l.Name,
				CompileRequest{Source: looplang.Print(l), MachineSource: string(src)},
				m,
			})
		}
	}
	return cases
}

// TestServedBoundsMatchAnalysis: the bounds a response reports are the
// ones modsched.ComputeMII computes for the same loop, whether the
// schedule is compiled (a cache miss), replayed from memory or from disk
// (a hit), or produced by the acyclic stage (max_ii below MII).
func TestServedBoundsMatchAnalysis(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{})
	if err := s.EnablePersistentCache(dir); err != nil {
		t.Fatal(err)
	}
	restarted := New(Config{})
	if err := restarted.EnablePersistentCache(dir); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cases := boundsCases(t)
	belowMII := 0
	seen := make(map[string]bool)
	for _, tc := range cases {
		loop, err := modsched.ParseLoop(tc.req.Source, tc.mach)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if key := schedcache.Key(loop, tc.mach, modsched.DefaultOptions()); seen[key] {
			continue // a structural twin of an earlier loop: already a hit
		} else {
			seen[key] = true
		}
		want, err := modsched.ComputeMII(loop, tc.mach, modsched.VLIWDelays)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		check := func(what string, srv *Server, req CompileRequest) *CompileResponse {
			item := srv.compileItem(ctx, &req)
			if item.Status != http.StatusOK {
				t.Fatalf("%s (%s): status %d: %+v", tc.name, what, item.Status, item.Error)
			}
			r := item.Result
			if r.ResMII != want.ResMII || r.MII != want.MII || r.NonTrivialSCCs != len(want.NonTrivialSCCs) {
				t.Errorf("%s (%s): served res_mii=%d mii=%d non_trivial_sccs=%d, analysis %d %d %d",
					tc.name, what, r.ResMII, r.MII, r.NonTrivialSCCs, want.ResMII, want.MII, len(want.NonTrivialSCCs))
			}
			return r
		}
		misses := s.CacheStats().Misses
		check("cache miss", s, tc.req)
		if s.CacheStats().Misses != misses+1 {
			t.Fatalf("%s: first compile was not a cache miss", tc.name)
		}
		hits := s.CacheStats().Hits
		check("cache hit", s, tc.req)
		if s.CacheStats().Hits != hits+1 {
			t.Fatalf("%s: second compile was not a cache hit", tc.name)
		}
		diskHits := restarted.DiskCacheStats().Hits
		check("disk hit", restarted, tc.req)
		if restarted.DiskCacheStats().Hits != diskHits+1 {
			t.Fatalf("%s: restarted compile was not a disk hit", tc.name)
		}
		if want.MII > 1 {
			belowMII++
			req := tc.req
			req.Options = &OptionsSpec{MaxII: want.MII - 1}
			if r := check("max_ii below MII", s, req); r.Degradation == nil || r.Degradation.Stage != "acyclic" {
				t.Errorf("%s: max_ii below MII gave %+v, want the acyclic stage", tc.name, r.Degradation)
			}
		}
	}
	if belowMII == 0 {
		t.Fatal("no loop had MII > 1: the acyclic case never ran")
	}
	t.Logf("%d distinct loops, %d compiled below MII", len(seen), belowMII)
}

package repro_test

// Allocation-budget gates for the mining pipeline. These pin the pooled
// Stage I tables and the de-allocated grow/merge loop at the whole-run
// level: the budgets are several times the steady-state numbers recorded
// in BENCH_PR8.json (Stage I ~100 allocs/op, full GID-1 pipeline ~13k),
// but far below the pre-pooling baselines (24,857 and 127,269 in
// BENCH_PR5.json), so reintroducing per-run map tables or per-iteration
// churn trips them immediately while normal drift does not. Skipped under
// -short; CI runs them explicitly in the bench smoke job.

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/spider"
	"repro/internal/spidermine"
)

const (
	stageIAllocBudget   = 2500  // pre-pooling: 24,857 allocs/op
	pipelineAllocBudget = 40000 // pre-pooling: 127,269 allocs/op
)

func TestStageIAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs in the bench smoke job")
	}
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	// Warm the generator caches; MineStarsContext itself is cold each
	// run — the budget covers a throwaway StarMiner building every table
	// from nil.
	allocs := testing.AllocsPerRun(5, func() {
		if stars := mineStars(g, spider.Options{MinSupport: 2}); stars.Len() == 0 {
			t.Fatal("no spiders")
		}
	})
	if allocs > stageIAllocBudget {
		t.Errorf("Stage I mining allocates %.0f/op, budget %d", allocs, stageIAllocBudget)
	}
}

func TestFullPipelineAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc gate runs in the bench smoke job")
	}
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	cfg := spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}
	allocs := testing.AllocsPerRun(3, func() {
		if res := mineGraph(g, cfg); len(res.Patterns) == 0 {
			t.Fatal("no patterns")
		}
	})
	if allocs > pipelineAllocBudget {
		t.Errorf("full GID-1 pipeline allocates %.0f/op, budget %d", allocs, pipelineAllocBudget)
	}
}

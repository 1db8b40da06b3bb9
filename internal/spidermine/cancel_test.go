package spidermine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/pattern"
	"repro/internal/spider"
)

// TestRunContextUncancelledEqualsRun: the cancellation plumbing must be
// invisible to an uncancelled run — even with a cancellable context (so
// snapshots and boundary checks are active), the result is byte-identical
// to the plain Run path.
func TestRunContextUncancelledEqualsRun(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	for _, workers := range []int{1, 2} {
		cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3, Workers: workers}
		want := fingerprint(t, Mine(g, cfg))
		ctx, cancel := context.WithCancel(context.Background())
		res, err := MineContext(ctx, g, cfg)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: uncancelled MineContext errored: %v", workers, err)
		}
		if got := fingerprint(t, res); got != want {
			t.Errorf("workers=%d: cancellable-but-uncancelled run differs from Run()", workers)
		}
	}
}

// cancelledRun mines the slow BA graph with a cancel pinned to the first
// Stage II grow+merge iteration boundary (delivered synchronously by the
// progress callback), returning the partial result, the run error, and
// how long the miner took to return after cancel() was called.
func cancelledRun(t *testing.T, workers int, mutate ...func(*Config)) (*Result, error, time.Duration) {
	t.Helper()
	g := gen.BarabasiAlbert(500, 3, 25, rand.New(rand.NewSource(11)))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cancelledAt time.Time
	cfg := Config{
		MinSupport: 3, K: 10, Dmax: 4, Seed: 5,
		MaxLeavesPerStar: 3, MaxSpiders: 20000,
		Workers: workers,
		OnProgress: func(ev StageEvent) {
			if ev.Stage == StageGrowth && ev.Iteration == 1 && cancelledAt.IsZero() {
				cancelledAt = time.Now()
				cancel()
			}
		},
	}
	for _, f := range mutate {
		f(&cfg)
	}
	res, err := MineContext(ctx, g, cfg)
	ret := time.Now()
	if cancelledAt.IsZero() {
		t.Fatal("run finished without reaching a Stage II growth iteration")
	}
	return res, err, ret.Sub(cancelledAt)
}

// TestCancelDeterministic is the cancellation contract's enforcing
// harness: cancelling mid-Stage-II (pinned to an iteration boundary via
// the synchronous progress callback) must return promptly with
// context.Canceled and a non-empty partial result whose fingerprint is
// byte-identical across runs at fixed workers — the committed state of
// the boundary the callback observed.
func TestCancelDeterministic(t *testing.T) {
	for _, workers := range []int{1, 2} {
		res1, err1, lat1 := cancelledRun(t, workers)
		if !errors.Is(err1, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err1)
		}
		if lat1 > 100*time.Millisecond {
			t.Errorf("workers=%d: %v from cancel to return, want < 100ms", workers, lat1)
		}
		if len(res1.Patterns) == 0 {
			t.Fatalf("workers=%d: cancelled run returned no partial patterns", workers)
		}
		res2, err2, _ := cancelledRun(t, workers)
		if !errors.Is(err2, context.Canceled) {
			t.Fatalf("workers=%d: second run err = %v", workers, err2)
		}
		if fingerprint(t, res1) != fingerprint(t, res2) {
			t.Errorf("workers=%d: two identically cancelled runs returned different partial results", workers)
		}
	}
}

// TestCancelPartialDedupe: a cancelled run's partial selection applies
// the exact structural dedupe by default — safe now that the
// automorphism-pruned Canonizer codes unpruned hub patterns in
// microseconds — and stays deterministic; DisablePartialDedupe restores
// the historical duplicate-tolerant path, also deterministically.
func TestCancelPartialDedupe(t *testing.T) {
	res, err, _ := cancelledRun(t, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i, p := range res.Patterns {
		for _, q := range res.Patterns[i+1:] {
			if pattern.SameStructure(p, q, 1) {
				t.Fatalf("deduped partial result contains isomorphic duplicates (%v, %v)", p, q)
			}
		}
	}
	if res.Stats.CanonRun == 0 {
		t.Fatal("partial dedupe ran but Stats.CanonRun is zero")
	}
	disable := func(c *Config) { c.DisablePartialDedupe = true }
	raw1, err1, _ := cancelledRun(t, 1, disable)
	raw2, err2, _ := cancelledRun(t, 1, disable)
	if !errors.Is(err1, context.Canceled) || !errors.Is(err2, context.Canceled) {
		t.Fatalf("gated runs errs = %v, %v, want context.Canceled", err1, err2)
	}
	if fingerprint(t, raw1) != fingerprint(t, raw2) {
		t.Error("DisablePartialDedupe partials differ between identical runs")
	}
	if len(raw1.Patterns) < len(res.Patterns) {
		t.Errorf("dedupe kept %d patterns but the raw selection only had %d",
			len(res.Patterns), len(raw1.Patterns))
	}
}

// TestCancelBeforeStageI: a context cancelled before mining starts
// surfaces immediately with an empty (but non-nil) result.
func TestCancelBeforeStageI(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := MineContext(ctx, g, Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil {
		t.Fatal("nil result on cancelled run")
	}
	if len(res.Patterns) != 0 {
		t.Fatalf("pre-cancelled run produced %d patterns", len(res.Patterns))
	}
}

// TestDeadlineSurfacesDeadlineExceeded: a ctx deadline reports
// context.DeadlineExceeded through the same path.
func TestDeadlineSurfacesDeadlineExceeded(t *testing.T) {
	g := gen.BarabasiAlbert(500, 3, 25, rand.New(rand.NewSource(11)))
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Millisecond)
	defer cancel()
	_, err := MineContext(ctx, g, Config{
		MinSupport: 3, K: 10, Dmax: 4, Seed: 5, MaxLeavesPerStar: 3, MaxSpiders: 20000,
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestMergeGroupsCancelAnywhere: the merge-candidate scan observes
// cancellation mid-round. Wherever the cancel lands, the scan either
// finishes with the full candidate list or returns context.Canceled with
// no groups, and either way it leaves the usage index empty, so the same
// Miner's next uncancelled round finds exactly the same candidates. The
// first try is cancelled before the call, so its scan stops at the first
// touched vertex with the whole usage index filled.
func TestMergeGroupsCancelAnywhere(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	m, M := stagedMiner(t, g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3})
	var ws []*grown
	for _, p := range spider.RandomSeed(g, &m.catalog, M, m.cfg.PerHostCap, m.rng, 0) {
		p.DedupeEmbeddings()
		if m.supFn(p.G, p.Emb) >= m.cfg.MinSupport {
			ws = append(ws, &grown{p: p, radius: 1})
		}
	}
	if _, err := m.growAll(ws); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	groups, err := m.mergeGroups(ws)
	took := time.Since(t0)
	if err != nil || len(groups) == 0 {
		t.Fatalf("uncancelled scan: %d groups, err %v", len(groups), err)
	}
	want := slices.Clone(m.mergeCands)

	const tries = 40
	aborted := 0
	for i := range tries {
		ctx, cancel := context.WithCancel(context.Background())
		m.ctx, m.done = ctx, ctx.Done()
		if i == 0 {
			cancel()
		}
		timer := time.AfterFunc(took*time.Duration(i)/tries, cancel)
		groups, err := m.mergeGroups(ws)
		timer.Stop()
		cancel()
		switch {
		case err == nil:
			if !slices.Equal(m.mergeCands, want) {
				t.Fatalf("try %d: a scan that finished found other candidates", i)
			}
		case errors.Is(err, context.Canceled):
			aborted++
			if groups != nil {
				t.Fatalf("try %d: a cancelled scan returned %d groups", i, len(groups))
			}
		default:
			t.Fatalf("try %d: err = %v", i, err)
		}
		for hv, u := range m.mergeUsage {
			if len(u) != 0 {
				t.Fatalf("try %d: host vertex %d keeps %d usage slots", i, hv, len(u))
			}
		}
	}
	m.ctx, m.done = context.Background(), nil
	if _, err := m.mergeGroups(ws); err != nil || !slices.Equal(m.mergeCands, want) {
		t.Fatalf("the round after the cancelled ones differs from the first (err %v)", err)
	}
	t.Logf("%d of %d scans observed their cancel", aborted, tries)
}

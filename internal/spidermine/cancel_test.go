package spidermine

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/spider"
)

// TestRunContextUncancelledEqualsRun: the cancellation plumbing must be
// invisible to an uncancelled run — even with a cancellable context (so
// snapshots and boundary checks are active), the result is byte-identical
// to the run under context.Background().
func TestRunContextUncancelledEqualsRun(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	for _, workers := range []int{1, 2} {
		cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3, Workers: workers}
		want := fingerprint(t, mine(g, cfg))
		ctx, cancel := context.WithCancel(context.Background())
		res, err := MineContext(ctx, g, cfg)
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: uncancelled MineContext errored: %v", workers, err)
		}
		if got := fingerprint(t, res); got != want {
			t.Errorf("workers=%d: cancellable-but-uncancelled run differs from the Background run", workers)
		}
	}
}

// cancelledRun mines the slow BA graph with a cancel pinned to the first
// Stage II grow+merge iteration boundary (delivered synchronously by the
// progress callback), returning the partial result, the run error, and
// how long the miner took to return after cancel() was called.
func cancelledRun(t *testing.T, workers int) (*Result, error, time.Duration) {
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
// the same exact structural dedupe as a completed run — safe since the
// automorphism-pruned Canonizer codes unpruned hub patterns in
// microseconds.
func TestCancelPartialDedupe(t *testing.T) {
	res, err, _ := cancelledRun(t, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	cz := canon.NewCanonizer()
	for i, p := range res.Patterns {
		for _, q := range res.Patterns[i+1:] {
			if p.CanonicalCodeWith(cz) == q.CanonicalCodeWith(cz) {
				t.Fatalf("deduped partial result contains isomorphic duplicates (%v, %v)", p, q)
			}
		}
	}
	if res.Stats.CanonRun == 0 {
		t.Fatal("partial dedupe ran but Stats.CanonRun is zero")
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
// no groups, and either way the same Miner's next uncancelled round finds
// exactly the same candidates. The first try is cancelled before the
// call, so its scan stops at the first slot with the whole usage index
// filled.
func TestMergeGroupsCancelAnywhere(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	m, M := stagedMiner(t, g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3})
	var ws []*grown
	for _, p := range drawSeeds(t, m, M) {
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
		m.ctx, m.done = context.Background(), nil
		if _, err := m.mergeGroups(ws); err != nil || !slices.Equal(m.mergeCands, want) {
			t.Fatalf("try %d: the round after it differs from the first (err %v)", i, err)
		}
	}
	t.Logf("%d of %d scans observed their cancel", aborted, tries)
}

// TestGrowCancelSeenAtNextPattern: at one worker a growth pass checks for
// cancellation before every pattern, so a cancel raised while pattern k
// grows leaves every later pattern ungrown and unmarked.
func TestGrowCancelSeenAtNextPattern(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	m, ws := seedSet(t, g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3})
	const k = 3
	if len(ws) < 40 {
		t.Fatalf("only %d seeds", len(ws))
	}
	before := make([]*graph.Graph, len(ws))
	for i, w := range ws {
		before[i] = w.p.G
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.ctx, m.done = ctx, ctx.Done()
	m.growWS.For(1)[0].guardSeen = func(pg *graph.Graph, _ graph.V, _, _ bool) {
		if pg == before[k] {
			cancel()
		}
	}
	if _, err := m.growAll(ws); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	for i := k + 1; i < len(ws); i++ {
		if w := ws[i]; w.p.G != before[i] || w.radius != 1 || w.done {
			t.Fatalf("pattern %d was grown after the cancel raised while pattern %d grew", i, k)
		}
	}
}

// TestMergeCancelSeenAtNextGroup: at one worker a merge round checks for
// cancellation before every group it evaluates. The working set pairs up
// into disjoint overlapping groups, one wave of them; a cancel raised
// while the first group's union is judged leaves every later group
// unevaluated, and the round returns the input set.
func TestMergeCancelSeenAtNextGroup(t *testing.T) {
	const sites = 8
	b := graph.NewBuilder(3*sites, 2*sites)
	for range sites {
		h := b.AddVertex(9)
		b.AddEdge(h, b.AddVertex(1))
		b.AddEdge(h, b.AddVertex(2))
	}
	g := b.Build()
	m := minerFor(g, Config{MinSupport: 1, Dmax: 4})
	pgA := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	pgB := graph.FromEdges([]graph.Label{9, 2}, []graph.Edge{{U: 0, W: 1}})
	var ws []*grown
	for s := range sites {
		h := graph.V(3 * s)
		ws = append(ws,
			&grown{p: pattern.New(pgA, []pattern.Embedding{{h, h + 1}}), radius: 1},
			&grown{p: pattern.New(pgB, []pattern.Embedding{{h, h + 2}}), radius: 1})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.ctx, m.done = ctx, ctx.Done()
	sup, judged := m.supFn, 0
	m.supFn = func(pg *graph.Graph, embs []pattern.Embedding) int {
		judged++
		cancel()
		return sup(pg, embs)
	}
	out, err := m.checkMerges(ws)
	if judged != 1 {
		t.Fatalf("%d groups judged, want 1: groups after the cancel were evaluated", judged)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != len(ws) || m.stats.Merges != 0 {
		t.Fatalf("cancelled round returned %d patterns and %d merges, want the %d inputs and none", len(out), m.stats.Merges, len(ws))
	}
}

// TestSeedPatternsCancelledKeepsRNG: a radius-2 Miner's seed draw under a
// context that has already fired returns nil and ctx.Err(), and leaves the
// rng where an uncancelled draw leaves it. Stage I's trees are capped:
// uncapped, radius-2 trees on GID-1 run into gigabytes.
func TestSeedPatternsCancelledKeepsRNG(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	trees, err := spider.MineTreesContext(context.Background(), g, spider.TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 4, MaxSpiders: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// draw returns the seeds and the rng's next value after the draw.
	draw := func(ctx context.Context) ([]*pattern.Pattern, int64, error) {
		m := New(g, Config{MinSupport: 2, Radius: 2, Seed: 3})
		m.ctx, m.done = ctx, ctx.Done()
		rng := rand.New(rand.NewSource(5))
		seeds, err := m.seedPatterns(20, trees, rng)
		return seeds, rng.Int63(), err
	}
	seeds, want, err := draw(context.Background())
	if err != nil || len(seeds) == 0 {
		t.Fatalf("uncancelled draw: %d seeds, err %v", len(seeds), err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	seeds, got, err := draw(ctx)
	if seeds != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled draw: %d seeds, err %v; want nil, context.Canceled", len(seeds), err)
	}
	if got != want {
		t.Fatalf("after a cancelled draw the rng yields %d, after an uncancelled one %d", got, want)
	}
}

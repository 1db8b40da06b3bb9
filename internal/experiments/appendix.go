package experiments

import (
	"context"
	"fmt"
	"time"

	"repro/internal/gen"
	"repro/internal/spider"
	"repro/internal/spidermine"
	"repro/internal/support"
)

// AppC3 reproduces Appendix C(3), varied spider radius r: Stage I runtime
// on one graph (the paper uses 600 edges, 30 labels) as r grows — runtime
// explodes exponentially (the paper's r=4 ran out of memory). Scale
// shrinks the graph and the tree fanout for quick runs.
func AppC3(ctx context.Context, rs []int, seed int64, scale float64) *Report {
	cfg := gen.SyntheticConfig{
		N: scaled(300, scale), AvgDeg: 4, NumLabels: scaled(30, scale), Seed: seed,
		Large: gen.InjectSpec{NV: 20, Count: 2, Support: 2},
		Small: gen.InjectSpec{NV: 3, Count: 4, Support: 3},
	}
	fanout := 3
	if scale < 1 {
		fanout = 2
	}
	g, _ := gen.Synthetic(cfg)
	rep := &Report{
		ID:     "appC3",
		Title:  "varied spider radius r: Stage I (spider mining) cost",
		Header: []string{"r", "#spiders", "runtime"},
	}
	for _, r := range rs {
		t0 := time.Now()
		var count int
		if r == 1 {
			stars, _ := spider.MineStarsContext(ctx, g, spider.Options{MinSupport: 2})
			count = stars.Len()
		} else {
			trees, _ := spider.MineTreesContext(ctx, g, spider.TreeOptions{
				MinSupport: 2, Radius: r, MaxFanout: fanout, MaxSpiders: 500_000,
			})
			count = len(trees)
		}
		rep.Rows = append(rep.Rows, []string{itoa(r), itoa(count), time.Since(t0).String()})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: runtime grows ~exponentially in r (paper: 0.6s/2.7s/87s for r=1/2/3; OOM at r=4)",
		fmt.Sprintf("graph: %v", g))
	return rep
}

// AppC4 reproduces Appendix C(4), varied ε: full-pipeline runtime on the
// Jeti-like call graph (σ=10) for each error bound. Smaller ε draws more
// seed spiders (larger M), so runtime increases as ε decreases.
func AppC4(ctx context.Context, epsilons []float64, seed int64, scale float64, workers int) *Report {
	g, sigma := callGraphFor(seed, scale)
	rep := &Report{
		ID:     "appC4",
		Title:  fmt.Sprintf("varied ε on Jeti-like data (σ=%d): runtime and M", sigma),
		Header: []string{"ε", "M", "runtime", "top-1 |E|"},
	}
	for i, eps := range epsilons {
		if i > 0 {
			// A fresh host object per row: a mine of one object reuses an
			// earlier mine's live Stage I table, and each timed row pays
			// Stage I, as the paper's runtimes do. The generator is
			// deterministic, so every row mines the same graph.
			g, _ = callGraphFor(seed, scale)
		}
		t0 := time.Now()
		res, _ := spidermine.MineContext(ctx, g, spidermine.Config{
			MinSupport: sigma, K: 10, Dmax: 8, Epsilon: eps, Seed: seed,
			Measure: support.HarmfulOverlap, Workers: workers,
		})
		el := time.Since(t0)
		top := 0
		if len(res.Patterns) > 0 {
			top = res.Patterns[0].Size()
		}
		rep.Rows = append(rep.Rows, []string{f2(eps), itoa(res.Stats.M), el.String(), itoa(top)})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: smaller ε ⇒ larger M ⇒ longer runtime (paper: 7.2s/7.7s/9.1s for ε=0.45/0.25/0.05)")
	return rep
}

// Lemma2Table reproduces the §4.1 worked example and sweeps M for several
// (K, ε, Vmin) settings.
func Lemma2Table() *Report {
	rep := &Report{
		ID:     "lemma2",
		Title:  "seed draw size M from Lemma 2",
		Header: []string{"|V|", "Vmin", "K", "ε", "M", "P_success"},
	}
	type row struct {
		n, vmin, k int
		eps        float64
	}
	cases := []row{
		{10000, 1000, 10, 0.1}, // the paper's example: M ≈ 85
		{10000, 1000, 10, 0.05},
		{10000, 1000, 20, 0.1},
		{10000, 500, 10, 0.1},
		{100000, 10000, 10, 0.1},
	}
	for _, c := range cases {
		m := spider.ComputeM(c.n, c.vmin, c.k, c.eps)
		ps := spider.PSuccess(c.n, c.vmin, c.k, m)
		rep.Rows = append(rep.Rows, []string{
			itoa(c.n), itoa(c.vmin), itoa(c.k), f2(c.eps), itoa(m), fmt.Sprintf("%.4f", ps)})
	}
	rep.Notes = append(rep.Notes, "paper's worked example: ε=0.1, K=10, Vmin=|V|/10 ⇒ M=85 (we compute the minimal integer, 86)")
	return rep
}

// Ablations runs the design-choice ablations DESIGN.md calls out on one
// GID-1 dataset: spider-set pruning on/off and Stage II merge pruning
// on/off.
func Ablations(ctx context.Context, seed int64, workers int) *Report {
	rep := &Report{
		ID:     "ablations",
		Title:  "ablations on GID-1: spider-set pruning and merge pruning",
		Header: []string{"variant", "runtime", "top-1 |E|", "iso run", "iso skipped", "#patterns"},
	}
	run := func(name string, cfg spidermine.Config) {
		// A fresh host object per timed row, so every row pays Stage I
		// (see AppC4).
		g, _ := gen.Synthetic(gen.GIDConfig(1, seed))
		t0 := time.Now()
		res, _ := spidermine.MineContext(ctx, g, cfg)
		el := time.Since(t0)
		top := 0
		if len(res.Patterns) > 0 {
			top = res.Patterns[0].Size()
		}
		rep.Rows = append(rep.Rows, []string{
			name, el.String(), itoa(top), i64a(res.Stats.IsoRun), i64a(res.Stats.IsoSkipped), itoa(len(res.Patterns))})
	}
	base := spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: seed, Workers: workers}
	run("baseline", base)
	noSS := base
	noSS.DisableSpiderSetPruning = true
	run("no spider-set pruning", noSS)
	keepUn := base
	keepUn.KeepUnmerged = true
	run("no merge pruning (keep unmerged)", keepUn)
	restarts := base
	restarts.Restarts = 3
	run("3 random restarts", restarts)
	return rep
}

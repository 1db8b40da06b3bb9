package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner/moss"
	"repro/internal/miner/seus"
	"repro/internal/miner/subdue"
	"repro/internal/pattern"
	"repro/internal/spider"
	"repro/internal/spidermine"
	"repro/internal/support"
)

// randFor derives a deterministic RNG from a base seed and a variant.
func randFor(seed, variant int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + variant))
}

// Fig4to8 reproduces the pattern-size distributions of Figures 4–8: on the
// Table 1 dataset with the given GID (1..5), SpiderMine (σ=2, K=10,
// Dmax=4) against SUBDUE and SEuS.
func Fig4to8(ctx context.Context, gid int, seed int64, workers int) *Report {
	g, _ := gen.Synthetic(gen.GIDConfig(gid, seed))
	smRes, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Epsilon: 0.1, Seed: seed, Workers: workers})
	smHist := SizeHistogram(smRes.Patterns)

	sd, _ := subdue.MineContext(ctx, g, subdue.Config{MinSupport: 2})
	sdPats := make([]*pattern.Pattern, 0, len(sd))
	for _, s := range sd {
		sdPats = append(sdPats, s.P)
	}
	sdHist := SizeHistogram(sdPats)

	se, _ := seus.MineContext(ctx, g, seus.Config{MinSupport: 2})
	sePats := make([]*pattern.Pattern, 0, len(se))
	for _, r := range se {
		sePats = append(sePats, r.P)
	}
	seHist := SizeHistogram(sePats)

	header, rows := histogramRows([]string{"SpiderMine", "SUBDUE", "SEuS"},
		[]map[int]int{smHist, sdHist, seHist})
	return &Report{
		ID:     fmt.Sprintf("fig%d", 3+gid),
		Title:  fmt.Sprintf("pattern-size distribution, GID %d (Table 1)", gid),
		Header: header,
		Rows:   rows,
		Notes: []string{
			"expected shape: SpiderMine mass near |V|=30 (injected large patterns); SUBDUE/SEuS mass at |V|<=4",
			fmt.Sprintf("graph: %v", g),
		},
	}
}

// Fig9 reproduces the runtime comparison against the complete miner MoSS
// on sparse graphs (d=2, f=70), |V| in sizes.
func Fig9(ctx context.Context, sizes []int, seed int64, mossTimeout time.Duration, workers int) *Report {
	rep := &Report{
		ID:     "fig9",
		Title:  "runtime vs |V|: SpiderMine vs MoSS (ER, d=2, f=70)",
		Header: []string{"|V|", "SpiderMine", "MoSS", "MoSS complete?"},
	}
	for _, n := range sizes {
		cfg := gen.SyntheticConfig{N: n, AvgDeg: 2, NumLabels: 70, Seed: seed,
			Large: gen.InjectSpec{NV: 20, Count: 2, Support: 2},
			Small: gen.InjectSpec{NV: 3, Count: 3, Support: 2}}
		g, _ := gen.Synthetic(cfg)
		t0 := time.Now()
		spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: seed, Workers: workers})
		smT := time.Since(t0)
		t1 := time.Now()
		mr, _ := moss.MineContext(ctx, g, moss.Config{MinSupport: 2, Timeout: mossTimeout})
		moT := time.Since(t1)
		rep.Rows = append(rep.Rows, []string{
			itoa(n), smT.String(), moT.String(), fmt.Sprintf("%v", mr.Completed)})
	}
	rep.Notes = append(rep.Notes, "expected shape: MoSS grows much faster with |V| and eventually fails to complete")
	return rep
}

// Fig10 reproduces the runtime comparison against SUBDUE (ER, d=3, f=100,
// Dmax=10, σ=2, K=10).
func Fig10(ctx context.Context, sizes []int, seed int64, workers int) *Report {
	rep := &Report{
		ID:     "fig10",
		Title:  "runtime vs |V|: SpiderMine vs SUBDUE (ER, d=3, f=100)",
		Header: []string{"|V|", "SpiderMine", "SUBDUE"},
	}
	for _, n := range sizes {
		g := genScaleGraph(n, seed)
		t0 := time.Now()
		spidermine.MineContext(ctx, g, scaleMineConfig(seed, workers))
		smT := time.Since(t0)
		t1 := time.Now()
		subdue.MineContext(ctx, g, subdue.Config{MinSupport: 2})
		sdT := time.Since(t1)
		rep.Rows = append(rep.Rows, []string{itoa(n), smT.String(), sdT.String()})
	}
	rep.Notes = append(rep.Notes, "expected shape: SUBDUE runtime grows super-linearly; SpiderMine near-linear")
	return rep
}

// genScaleGraph builds the Fig. 10–12 workload: ER with average degree 3,
// 100 labels, large patterns injected proportionally to graph size so
// larger graphs hold larger discoverable patterns (Fig. 12 reports largest
// pattern sizes growing with |V|).
func genScaleGraph(n int, seed int64) *graph.Graph {
	largeNV := n / 170 // the paper's Fig. 12 curve: ~230 vertices at |V|=40k
	if largeNV < 10 {
		largeNV = 10
	}
	if largeNV > 240 {
		largeNV = 240
	}
	cfg := gen.SyntheticConfig{
		N: n, AvgDeg: 3, NumLabels: 100, Seed: seed,
		Large: gen.InjectSpec{NV: largeNV, Count: 3, Support: 2},
		Small: gen.InjectSpec{NV: 4, Count: 5, Support: 3},
	}
	g, _ := gen.Synthetic(cfg)
	return g
}

// scaleMineConfig is the miner configuration of the Fig. 10-12 sweeps:
// the paper's adopted harmful-overlap measure (overlapping shifted
// embeddings must not fake support, or background chains grow without
// bound on near-uniform ER graphs) and a Stage I cap against the
// sub-star explosion between look-alike high-degree neighborhoods.
func scaleMineConfig(seed int64, workers int) spidermine.Config {
	return spidermine.Config{
		MinSupport:       2,
		K:                10,
		Dmax:             10,
		Seed:             seed,
		Measure:          support.HarmfulOverlap,
		MaxLeavesPerStar: 8,
		MaxSpiders:       500_000,
		Workers:          workers,
	}
}

// Fig11and12 reproduces the scalability curves: SpiderMine runtime
// (Fig. 11) and the size of the largest discovered pattern (Fig. 12) as
// |V| grows (the paper sweeps to 40,000 vertices, finding patterns of
// size 230 in under two minutes).
func Fig11and12(ctx context.Context, sizes []int, seed int64, workers int) *Report {
	rep := &Report{
		ID:     "fig11+12",
		Title:  "SpiderMine scalability (ER, d=3, f=100): runtime and largest pattern",
		Header: []string{"|V|", "runtime", "largest |V(P)|", "largest |E(P)|", "#spiders"},
	}
	for _, n := range sizes {
		g := genScaleGraph(n, seed)
		t0 := time.Now()
		res, _ := spidermine.MineContext(ctx, g, scaleMineConfig(seed, workers))
		el := time.Since(t0)
		lv, le := 0, 0
		if len(res.Patterns) > 0 {
			lv, le = res.Patterns[0].NV(), res.Patterns[0].Size()
		}
		rep.Rows = append(rep.Rows, []string{itoa(n), el.String(), itoa(lv), itoa(le), itoa(res.Stats.NumSpiders)})
	}
	rep.Notes = append(rep.Notes, "expected shape: near-linear runtime; largest pattern grows with |V|")
	return rep
}

// Fig13and17 reproduces the scale-free experiments: on Barabási–Albert
// graphs, the number of r-spiders and SpiderMine runtime (Fig. 17) plus
// the largest pattern found (Fig. 13), swept over graph size.
func Fig13and17(ctx context.Context, sizes []int, seed int64, workers int) *Report {
	rep := &Report{
		ID:     "fig13+17",
		Title:  "scale-free networks (BA): spiders, runtime, largest pattern",
		Header: []string{"|V|", "|E|", "#r-spiders", "runtime", "largest |E(P)|"},
	}
	for _, n := range sizes {
		rng := randFor(seed, int64(n))
		g := gen.BarabasiAlbert(n, 2, 100, rng)
		t0 := time.Now()
		res, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 6, Seed: seed,
			MaxLeavesPerStar: 8, MaxSpiders: 1_000_000,
			Measure: support.HarmfulOverlap, Workers: scaleWorkers(workers)})
		el := time.Since(t0)
		le := 0
		if len(res.Patterns) > 0 {
			le = res.Patterns[0].Size()
		}
		rep.Rows = append(rep.Rows, []string{itoa(n), itoa(g.M()), itoa(res.Stats.NumSpiders), el.String(), itoa(le)})
	}
	rep.Notes = append(rep.Notes, "expected shape: #spiders rises sharply with size (high-degree hubs)")
	return rep
}

// Fig16 reproduces the runtime table over GID 1–5 for all four
// single-graph miners; MoSS entries show "-" when the timeout aborts the
// complete enumeration, as in the paper.
func Fig16(ctx context.Context, seed int64, mossTimeout time.Duration, workers int) *Report {
	rep := &Report{
		ID:     "fig16",
		Title:  "runtime comparison on GID 1-5 (Table 1 datasets)",
		Header: []string{"GID", "SpiderMine", "SUBDUE", "SEuS", "MoSS"},
	}
	for gid := 1; gid <= 5; gid++ {
		g, _ := gen.Synthetic(gen.GIDConfig(gid, seed))
		t0 := time.Now()
		spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: seed, Workers: workers})
		smT := time.Since(t0)
		t1 := time.Now()
		subdue.MineContext(ctx, g, subdue.Config{MinSupport: 2})
		sdT := time.Since(t1)
		t2 := time.Now()
		seus.MineContext(ctx, g, seus.Config{MinSupport: 2})
		seT := time.Since(t2)
		mr, _ := moss.MineContext(ctx, g, moss.Config{MinSupport: 2, Timeout: mossTimeout})
		moCell := mr.Elapsed.String()
		if !mr.Completed {
			moCell = "-" // aborted, like the paper's 10-hour cutoff
		}
		rep.Rows = append(rep.Rows, []string{itoa(gid), smT.String(), sdT.String(), seT.String(), moCell})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: SpiderMine fastest or comparable on all GIDs; MoSS '-' on the denser GIDs (2, 4, 5)")
	return rep
}

// Fig18 reproduces the robustness experiment (Fig. 18 / Table 3): the
// sizes of the top-5 patterns on GID 6–10 with Dmax=6, σ=10, K=5. Scale
// shrinks the Table 3 graph sizes for affordable runs; Scale=1 is the
// paper's setting.
func Fig18(ctx context.Context, seed int64, scale float64, workers int) *Report {
	rep := &Report{
		ID:     "fig18",
		Title:  "robustness to pattern distribution (GID 6-10): top-5 pattern sizes |E|",
		Header: []string{"GID", "top1", "top2", "top3", "top4", "top5", "runtime"},
	}
	for gid := 6; gid <= 10; gid++ {
		cfg := gen.GIDConfigLarge(gid, seed)
		cfg.N = scaled(cfg.N, scale)
		cfg.NumLabels = scaled(cfg.NumLabels, scale)
		// Shrink the injected noise with the graph so pattern density (and
		// hence runtime behaviour) matches the paper's regime.
		cfg.Small.Count = scaled(cfg.Small.Count, scale)
		g, _ := gen.Synthetic(cfg)
		t0 := time.Now()
		res, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 10, K: 5, Dmax: 6, Seed: seed, Workers: workers})
		el := time.Since(t0)
		row := []string{itoa(gid)}
		for i := 0; i < 5; i++ {
			if i < len(res.Patterns) {
				row = append(row, itoa(res.Patterns[i].Size()))
			} else {
				row = append(row, "-")
			}
		}
		row = append(row, el.String())
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "expected shape: top-5 sizes stay consistent across GIDs despite growing small-pattern noise")
	return rep
}

// Fig19 reproduces the varied-Dmax experiment on the GID-7 configuration:
// top-5 pattern sizes for d = Dmax/2 in ds.
func Fig19(ctx context.Context, ds []int, seed int64, scale float64, workers int) *Report {
	cfg := gen.GIDConfigLarge(7, seed)
	cfg.N = scaled(cfg.N, scale)
	cfg.NumLabels = scaled(cfg.NumLabels, scale)
	cfg.Small.Count = scaled(cfg.Small.Count, scale)
	g, _ := gen.Synthetic(cfg)
	rep := &Report{
		ID:     "fig19",
		Title:  "varied Dmax on GID-7 data: top-5 pattern sizes |V|",
		Header: []string{"d=Dmax/2", "top1", "top2", "top3", "top4", "top5"},
	}
	for _, d := range ds {
		res, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 10, K: 5, Dmax: 2 * d, Seed: seed, Workers: workers})
		row := []string{itoa(d)}
		for i := 0; i < 5; i++ {
			if i < len(res.Patterns) {
				row = append(row, itoa(res.Patterns[i].NV()))
			} else {
				row = append(row, "-")
			}
		}
		rep.Rows = append(rep.Rows, row)
	}
	rep.Notes = append(rep.Notes, "expected shape: stable results unless Dmax is too small (d=1) for spiders to merge")
	return rep
}

// SpiderCountOnly mines just Stage I on a graph (Fig. 17's spider counts
// without the full pipeline), returning the count and elapsed time. The
// enumeration is capped: scale-free hubs make the frequent sub-star
// lattice explode combinatorially (the Fig. 17 phenomenon), so an
// uncapped run on a 10k-vertex BA graph does not terminate in reasonable
// time.
func SpiderCountOnly(ctx context.Context, n int, seed int64) (int, time.Duration) {
	rng := randFor(seed, int64(n))
	g := gen.BarabasiAlbert(n, 2, 100, rng)
	t0 := time.Now()
	stars, _ := spider.MineStarsContext(ctx, g, spider.Options{
		MinSupport: 2, MaxLeaves: 6, MaxSpiders: 500_000,
	})
	return stars.Len(), time.Since(t0)
}

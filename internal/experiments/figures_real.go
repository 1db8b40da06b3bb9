package experiments

import (
	"context"
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner/subdue"
	"repro/internal/pattern"
	"repro/internal/spidermine"
	"repro/internal/support"
)

// Fig20 reproduces the DBLP experiment (σ=4, K=20): pattern-size
// histograms of SpiderMine vs SUBDUE on the synthetic co-authorship
// network (see DESIGN.md for the substitution argument). Scale shrinks the
// author count; Scale=1 matches the paper's 6,508-author graph.
func Fig20(ctx context.Context, seed int64, scale float64, workers int) *Report {
	g, _ := gen.DBLPLike(gen.DBLPConfig{
		Authors: scaled(6508, scale),
		Seed:    seed,
	})
	smRes, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 4, K: 20, Dmax: 6, Seed: seed,
		Measure: support.HarmfulOverlap, Workers: workers})
	smHist := SizeHistogram(smRes.Patterns)

	sd, _ := subdue.MineContext(ctx, g, subdue.Config{MinSupport: 4})
	sdPats := make([]*pattern.Pattern, 0, len(sd))
	for _, s := range sd {
		sdPats = append(sdPats, s.P)
	}
	sdHist := SizeHistogram(sdPats)

	header, rows := histogramRows([]string{"SpiderMine", "SUBDUE"},
		[]map[int]int{smHist, sdHist})
	return &Report{
		ID:     "fig20",
		Title:  "DBLP-like co-authorship network (σ=4, K=20): SpiderMine vs SUBDUE",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"expected shape: SpiderMine returns patterns of size 10-25; SUBDUE stays at sizes 1-2",
			fmt.Sprintf("graph: %v", g),
		},
	}
}

// Fig21 reproduces the Jeti experiment (σ=10): SpiderMine vs SUBDUE on the
// synthetic call graph (835 methods, 267 class labels at Scale=1). At
// reduced scale the motif budget and σ shrink together so the planted
// motifs keep fitting the smaller graph.
func Fig21(ctx context.Context, seed int64, scale float64, workers int) *Report {
	g, sigma := callGraphFor(seed, scale)
	smRes, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: sigma, K: 10, Dmax: 8, Seed: seed,
		Measure: support.HarmfulOverlap, Workers: workers})
	smHist := SizeHistogram(smRes.Patterns)

	sd, _ := subdue.MineContext(ctx, g, subdue.Config{MinSupport: sigma})
	sdPats := make([]*pattern.Pattern, 0, len(sd))
	for _, s := range sd {
		sdPats = append(sdPats, s.P)
	}
	sdHist := SizeHistogram(sdPats)

	header, rows := histogramRows([]string{"SpiderMine", "SUBDUE"},
		[]map[int]int{smHist, sdHist})
	return &Report{
		ID:     "fig21",
		Title:  "Jeti-like call graph (σ=10): SpiderMine vs SUBDUE",
		Header: header,
		Rows:   rows,
		Notes: []string{
			"expected shape: SpiderMine returns patterns near the motif size (12 methods); SUBDUE stays at |V|<=4",
			fmt.Sprintf("graph: %v, σ=%d", g, sigma),
		},
	}
}

// callGraphFor builds the Fig. 21 / Appendix C(4) workload at the given
// scale. Below full scale, fewer motifs with lower support are planted
// (the full 5×12 embedding budget would not fit a shrunken graph) and σ
// shrinks in step.
func callGraphFor(seed int64, scale float64) (*graph.Graph, int) {
	sigma := 10
	cfg := gen.CallGraphConfig{
		Methods: scaled(835, scale),
		Classes: scaled(267, scale),
		Seed:    seed,
	}
	if scale < 1 {
		sigma = 5
		cfg.MotifCount = 2
		cfg.MotifSup = 6
		cfg.MotifSize = 10
	}
	g, _ := gen.CallGraphLike(cfg)
	return g, sigma
}

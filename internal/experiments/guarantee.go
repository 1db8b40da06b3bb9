package experiments

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner/moss"
	"repro/internal/spidermine"
)

// ExactTopK computes the exact top-K largest frequent patterns of g by
// complete enumeration (MoSS) followed by the diameter filter — feasible
// only on small graphs, which is precisely why SpiderMine exists. Returns
// the sizes (edge counts) of the top-K patterns, descending. MoSS grows
// connected patterns only, so the threshold test DiameterAtMost is the
// filter (TestExactTopKPatternsConnected).
func ExactTopK(ctx context.Context, g *graph.Graph, sigma, k, dmax int) []int {
	res, _ := moss.MineContext(ctx, g, moss.Config{MinSupport: sigma})
	var sizes []int
	for _, p := range res.Patterns {
		if p.G.DiameterAtMost(dmax) {
			sizes = append(sizes, p.Size())
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	if len(sizes) > k {
		sizes = sizes[:k]
	}
	return sizes
}

// GuaranteeTrial is one (seed, success) observation of the Theorem 1
// check.
type GuaranteeTrial struct {
	Seed    int64
	Exact   int // exact largest frequent pattern size
	Mined   int // SpiderMine's largest
	Success bool
}

// GuaranteeCheck empirically validates Theorem 1 on a small synthetic
// graph: across trials with different random seeds, SpiderMine must
// recover the exact largest pattern with frequency at least roughly 1−ε.
// The exact answer comes from complete enumeration.
func GuaranteeCheck(ctx context.Context, trials int, epsilon float64, seed int64, workers int) ([]GuaranteeTrial, *Report) {
	cfg := gen.SyntheticConfig{
		N: 150, AvgDeg: 2.5, NumLabels: 40, Seed: seed,
		Large: gen.InjectSpec{NV: 10, Count: 2, Support: 2},
		Small: gen.InjectSpec{NV: 3, Count: 3, Support: 2},
	}
	g, _ := gen.Synthetic(cfg)
	const sigma, k, dmax = 2, 5, 4
	exact := ExactTopK(ctx, g, sigma, k, dmax)
	exactTop := 0
	if len(exact) > 0 {
		exactTop = exact[0]
	}
	var out []GuaranteeTrial
	successes := 0
	for t := 0; t < trials; t++ {
		res, _ := spidermine.MineContext(ctx, g, spidermine.Config{
			MinSupport: sigma, K: k, Dmax: dmax, Epsilon: epsilon,
			Seed: seed*1000 + int64(t), Workers: workers,
		})
		mined := 0
		if len(res.Patterns) > 0 {
			mined = res.Patterns[0].Size()
		}
		tr := GuaranteeTrial{Seed: int64(t), Exact: exactTop, Mined: mined, Success: mined >= exactTop}
		if tr.Success {
			successes++
		}
		out = append(out, tr)
	}
	rep := &Report{
		ID:     "guarantee",
		Title:  fmt.Sprintf("Theorem 1 check: top-1 recovery rate over %d seeds (ε=%.2f)", trials, epsilon),
		Header: []string{"trial", "exact top-1 |E|", "mined top-1 |E|", "success"},
	}
	for _, tr := range out {
		rep.Rows = append(rep.Rows, []string{
			itoa(int(tr.Seed)), itoa(tr.Exact), itoa(tr.Mined), fmt.Sprintf("%v", tr.Success)})
	}
	rep.Notes = append(rep.Notes,
		fmt.Sprintf("success rate %d/%d (Theorem 1 demands >= %.2f asymptotically)",
			successes, trials, 1-epsilon),
		fmt.Sprintf("exact top-k sizes: %v", exact))
	return out, rep
}

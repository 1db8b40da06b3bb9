package experiments

import (
	"context"
	"time"

	"repro/internal/gen"
	"repro/internal/miner/grew"
	"repro/internal/spidermine"
)

// GrewComparison is an extension experiment (not a paper artifact): GREW
// vs SpiderMine on the GID-1 dataset. The paper's related-work section
// argues GREW "could discover some large patterns quickly" but gives "no
// guarantee on the pattern quality"; this driver quantifies both halves —
// GREW is fast but its largest recovered pattern is hit-or-miss, while
// SpiderMine recovers the injected size-30 patterns with its 1−ε
// guarantee.
func GrewComparison(ctx context.Context, seed int64, workers int) *Report {
	g, _ := gen.Synthetic(gen.GIDConfig(1, seed))
	rep := &Report{
		ID:     "grew",
		Title:  "extension: GREW vs SpiderMine on GID 1",
		Header: []string{"algorithm", "runtime", "top-1 |V|", "top-1 |E|", "instances/embeddings"},
	}
	t0 := time.Now()
	gr, _ := grew.MineContext(ctx, g, grew.Config{MinSupport: 2})
	grT := time.Since(t0)
	if len(gr) > 0 {
		rep.Rows = append(rep.Rows, []string{
			"GREW", grT.String(), itoa(gr[0].P.NV()), itoa(gr[0].P.Size()), itoa(gr[0].Instances)})
	} else {
		rep.Rows = append(rep.Rows, []string{"GREW", grT.String(), "-", "-", "-"})
	}
	t1 := time.Now()
	sm, _ := spidermine.MineContext(ctx, g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: seed, Workers: workers})
	smT := time.Since(t1)
	if len(sm.Patterns) > 0 {
		p := sm.Patterns[0]
		rep.Rows = append(rep.Rows, []string{
			"SpiderMine", smT.String(), itoa(p.NV()), itoa(p.Size()), itoa(len(p.Emb))})
	}
	rep.Notes = append(rep.Notes,
		"expected shape: GREW terminates fast and finds some structure; SpiderMine recovers the injected size-30 patterns")
	return rep
}

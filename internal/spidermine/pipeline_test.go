package spidermine

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/spider"
)

func TestPipelineStages(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	t.Logf("graph: %v avgdeg=%.2f", g, g.AvgDegree())

	m := New(g, Config{MinSupport: 2, K: 10, Dmax: 4, Epsilon: 0.1, Seed: 7})
	m.cfg = m.cfg.withDefaults(g)
	stars, _ := spider.MineStarsContext(context.Background(), g, spider.Options{MinSupport: 2})
	t.Logf("stars: %d", stars.Len())
	m.indexStars(stars)
	M := spider.ComputeM(g.N(), g.N()/10, 10, 0.1)
	t.Logf("M=%d", M)
	seeds := drawSeeds(t, m, M)
	t.Logf("seeds=%d", len(seeds))
	working := make([]*grown, 0, len(seeds))
	for _, p := range seeds {
		p.DedupeEmbeddings()
		if len(p.Emb) >= 2 {
			working = append(working, &grown{p: p, radius: 1})
		}
	}
	t.Logf("working after support filter: %d", len(working))
	for i := 0; i < 2; i++ {
		any, _ := m.growAll(working)
		before := len(working)
		working, _ = m.checkMerges(working)
		t.Logf("iter %d: grew=%v patterns %d->%d merges=%d", i, any, before, len(working), m.stats.Merges)
	}
	nMerged := 0
	maxSize := 0
	for _, w := range working {
		if w.p.Merged {
			nMerged++
		}
		if w.p.Size() > maxSize {
			maxSize = w.p.Size()
		}
	}
	t.Logf("merged=%d maxSize=%d", nMerged, maxSize)
	if nMerged == 0 {
		t.Fatal("no pattern merged during Stage II on GID 1")
	}
	if maxSize < 10 {
		t.Fatalf("Stage II largest pattern only %d edges", maxSize)
	}
	for _, w := range working {
		if w.p.G.Diameter() > 4 {
			t.Fatalf("Stage II pattern exceeds Dmax: diam %d", w.p.G.Diameter())
		}
	}
}

package spidermine

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/spider"
)

// baMergeSet returns a Miner and its working set on a fixed scale-free
// host (BarabasiAlbert(2000, 2, 50), the BA recipe's σ=3, Dmax=4, 6
// leaves per star and spider cap) after the seeds' first SpiderGrow
// pass: the state the first merge round of a BA mine sees.
func baMergeSet(tb testing.TB) (*Miner, []*grown) {
	tb.Helper()
	g := gen.BarabasiAlbert(2000, 2, 50, rand.New(rand.NewSource(1)))
	m := New(g, Config{MinSupport: 3, K: 3, Dmax: 4, MaxLeavesPerStar: 6, MaxSpiders: 500000, Seed: 1})
	stars := spider.MineStars(g, spider.Options{MinSupport: 3, MaxLeaves: 6, Radius: 1, MaxSpiders: 500000})
	m.catalog.Rebuild(stars)
	m.freqPairs = m.freqPairs[:0]
	for _, ms := range stars {
		if len(ms.Star.Leaves) == 1 {
			m.freqPairs = append(m.freqPairs, labelPair{h: ms.Star.Head, l: ms.Star.Leaves[0]})
		}
	}
	slices.SortFunc(m.freqPairs, cmpLabelPair)
	M := spider.ComputeM(g.N(), m.cfg.Vmin, m.cfg.K, m.cfg.Epsilon)
	var ws []*grown
	for _, p := range spider.RandomSeed(g, &m.catalog, M, m.cfg.PerHostCap, m.rng, 0) {
		p.DedupeEmbeddings()
		if m.supFn(p.G, p.Emb) >= m.cfg.MinSupport {
			ws = append(ws, &grown{p: p, radius: 1})
		}
	}
	if _, err := m.growAll(ws); err != nil {
		tb.Fatal(err)
	}
	return m, ws
}

// BenchmarkTryMerge times one sequential merge round's candidate
// evaluation over a fixed BA working set: every pattern pair's group
// goes through tryMerge (no pair is consumed, so the work per op is
// fixed). It reports allocations, which a warm run pays only for the
// unions that found or join a bucket.
func BenchmarkTryMerge(b *testing.B) {
	m, ws := baMergeSet(b)
	groups := m.mergeGroups(ws)
	if len(groups) == 0 {
		b.Fatal("working set has no merge candidates")
	}
	sc := m.mergeWS.For(1)[0]
	var isoRun int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, gp := range groups {
			m.tryMerge(ws[gp.pk.a].p, ws[gp.pk.b].p, m.mergeCands[gp.lo:gp.hi], sc, &isoRun)
		}
	}
	b.ReportMetric(float64(len(m.mergeCands)), "cands")
}

package spidermine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// seedSet returns a Miner for g and cfg and its working set of frequent
// seeds, numbered as runOnce numbers them, before any growth.
func seedSet(tb testing.TB, g *graph.Graph, cfg Config) (*Miner, []*grown) {
	tb.Helper()
	m, M := stagedMiner(tb, g, cfg)
	var ws []*grown
	for _, p := range drawSeeds(tb, m, M) {
		p.ID = m.newID()
		p.DedupeEmbeddings()
		if m.supFn(p.G, p.Emb) >= m.cfg.MinSupport {
			ws = append(ws, &grown{p: p, radius: 1})
		}
	}
	return m, ws
}

// mergeSet is seedSet after the seeds' first SpiderGrow pass: the state
// the first merge round of a mine sees.
func mergeSet(tb testing.TB, g *graph.Graph, cfg Config) (*Miner, []*grown) {
	tb.Helper()
	m, ws := seedSet(tb, g, cfg)
	if _, err := m.growAll(ws); err != nil {
		tb.Fatal(err)
	}
	return m, ws
}

// baMergeSet is mergeSet on a fixed scale-free host
// (BarabasiAlbert(2000, 2, 50)) under the BA recipe (σ=3, Dmax=4, 6
// leaves per star, the spider cap).
func baMergeSet(tb testing.TB) (*Miner, []*grown) {
	return mergeSet(tb, baHost(2000), baRecipe)
}

// BenchmarkTryMerge times one sequential merge round's candidate
// evaluation over a fixed BA working set: the round's image arena is
// prepared afresh and every pattern pair's group goes through tryMerge
// (no pair is consumed, so the work per op is fixed). It reports
// allocations, which a warm run pays only for the unions that found or
// join a bucket.
func BenchmarkTryMerge(b *testing.B) {
	m, ws := baMergeSet(b)
	groups, _ := m.mergeGroups(ws)
	if len(groups) == 0 {
		b.Fatal("working set has no merge candidates")
	}
	sc := m.mergeWS.For(1)[0]
	var isoRun int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.images.prepare(ws, m.scan.base, groups, m.mergeCands)
		for _, gp := range groups {
			m.tryMerge(&m.images, m.mergeCands[gp.lo:gp.hi], sc, &isoRun)
		}
	}
	b.ReportMetric(float64(len(m.mergeCands)), "cands")
}

// BenchmarkMergeRounds times whole merge rounds with the growth passes
// between them, as runOnce runs them from a mine's first merge round: the
// rest of Stage II's rounds, the prune to merged patterns, and Stage III's
// rounds until a growth pass grows nothing. It starts from a fixed working
// set, mergeSet's on the BA recipe host and on a serve-mixed host; each op
// runs on fresh shallow copies of the set, with IDs rewound and the
// restart's failures forgotten, so the work per op is fixed. It reports
// the groups evaluated and those resolved as known failures, per op.
func BenchmarkMergeRounds(b *testing.B) {
	for _, bc := range []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"ba", baHost(2000), baRecipe},
		{"serve100", serveHost(100), serveRecipe},
	} {
		b.Run(bc.name, func(b *testing.B) {
			m, set := mergeSet(b, bc.g, bc.cfg)
			pats, gs := make([]pattern.Pattern, len(set)), make([]grown, len(set))
			ws := make([]*grown, len(set))
			id0 := m.nextID
			evaluated, skipped0 := 0, m.stats.MergeSkipped
			m.waveSeen = func(wave []waveItem) { evaluated += len(wave) }
			iters := (m.cfg.Dmax + 2*m.cfg.Radius - 1) / (2 * m.cfg.Radius)
			round := func(ws []*grown) []*grown {
				out, err := m.checkMerges(ws)
				if err != nil {
					b.Fatal(err)
				}
				return out
			}
			grow := func(ws []*grown) bool {
				grew, err := m.growAll(ws)
				if err != nil {
					b.Fatal(err)
				}
				return grew
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, w := range set {
					pats[j], gs[j] = *w.p, *w
					gs[j].p, ws[j] = &pats[j], &gs[j]
				}
				m.nextID = id0
				m.failed.reset()
				working := ws
				for it := 0; it < iters; it++ {
					if it > 0 {
						grow(working)
					}
					working = round(working)
				}
				var survivors []*grown
				for _, w := range working {
					if w.p.Merged {
						survivors = append(survivors, w)
					}
				}
				if len(survivors) == 0 {
					survivors = fallbackLargest(working, m.cfg.K)
				}
				for it := 0; it < maxGrowIters; it++ {
					grew := grow(survivors)
					survivors = round(survivors)
					if !grew {
						break
					}
				}
			}
			b.ReportMetric(float64(evaluated)/float64(b.N), "evaluated/op")
			b.ReportMetric(float64(m.stats.MergeSkipped-skipped0)/float64(b.N), "skipped/op")
		})
	}
}

// BenchmarkExtendAt times one sequential SpiderGrow pass over a fixed BA
// working set: baMergeSet's after its merge round, the state the second
// growth pass of a BA mine sees, merged patterns (whose boundary is every
// vertex) included. Each op grows fresh shallow copies of the set, so the
// work per op is fixed.
func BenchmarkExtendAt(b *testing.B) {
	m, ws := baMergeSet(b)
	ws, err := m.checkMerges(ws)
	if err != nil {
		b.Fatal(err)
	}
	snap := make([]pattern.Pattern, len(ws))
	for i, w := range ws {
		snap[i] = *w.p
	}
	sc := m.growWS.For(1)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, w := range ws {
			p := snap[j]
			m.growPattern(&grown{p: &p, radius: w.radius}, sc)
		}
	}
	b.ReportMetric(float64(len(ws)), "patterns")
}

// BenchmarkSelectTopK times top-K selection over what a BA mine's Stages
// II and III hand it (BarabasiAlbert(2000, 2, 50), the BA recipe): the σ
// and Dmax filters, the structural dedupe and the sort. Each op selects
// from fresh copies of the patterns with their cached codes cleared.
func BenchmarkSelectTopK(b *testing.B) {
	m, M := stagedMiner(b, baHost(2000), baRecipe)
	ps, err := m.runOnce(0, M)
	if err != nil {
		b.Fatal(err)
	}
	pats := make([]pattern.Pattern, len(ps))
	sel := make([]*pattern.Pattern, len(ps))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, p := range ps {
			pats[j] = *p
			pats[j].InvalidateCaches()
			sel[j] = &pats[j]
		}
		if len(m.selectPatterns(sel)) == 0 {
			b.Fatal("selection kept nothing")
		}
	}
	b.ReportMetric(float64(len(ps)), "patterns")
}

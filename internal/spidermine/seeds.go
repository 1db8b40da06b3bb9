package spidermine

import (
	"math/rand"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/spider"
)

// seedPatterns draws M seed patterns according to the configured spider
// radius: r=1 seeds come from Stage I's star list; r>=2 seeds are tree
// spiders materialized by anchored subgraph matching. In both cases growth
// afterwards proceeds in radius-1 steps (SpiderGrow with r=1 stars), so
// the radius only affects Stage I cost and seed shape — mirroring the
// paper's finding that r=1 or 2 is the right trade-off (Appendix C(3)).
//
// The draw consumes rng in full first; the seeds are then materialized on
// the coordinator, in draw order, with the context polled before each
// (tree seeds through the Miner's one Matcher). So a cancelled draw
// leaves the rng stream where an uncancelled draw would.
func (m *Miner) seedPatterns(M int, trees []*spider.MinedTree, rng *rand.Rand) ([]*pattern.Pattern, error) {
	if m.cfg.Radius <= 1 || len(trees) == 0 {
		return m.sd.Draw(m.ctx, m.g, m.stars, M, rng)
	}
	if M > len(trees) {
		M = len(trees)
	}
	out := make([]*pattern.Pattern, 0, M)
	for _, t := range rng.Perm(len(trees))[:M] {
		if err := m.cancelled(); err != nil {
			return nil, err
		}
		if p := materializeTree(&m.matcher, m.g, trees[t]); p != nil {
			out = append(out, p)
		}
	}
	return out, nil
}

// materializeTree turns a mined tree spider into a Pattern by enumerating,
// per hosting head, up to spider.MaxEmbPerHost anchored embeddings. The
// caller's Matcher carries the search state across heads and trees.
func materializeTree(matcher *canon.Matcher, g *graph.Graph, mt *spider.MinedTree) *pattern.Pattern {
	pg := mt.Tree.Graph()
	var embs []pattern.Embedding
	for _, head := range mt.Hosts {
		matcher.Enumerate(pg, g, canon.MatchOptions{
			Limit:          spider.MaxEmbPerHost,
			Anchor:         head,
			DistinctImages: true,
		}, func(mm canon.Mapping) bool {
			embs = append(embs, pattern.Embedding(mm.Clone()))
			return true
		})
	}
	if len(embs) == 0 {
		return nil
	}
	p := pattern.New(pg, embs)
	p.Origin = 0
	return p
}

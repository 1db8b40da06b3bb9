// Package subdue implements a SUBDUE-style approximate substructure miner
// (Holder, Cook & Djoko, KDD'94): beam search over one-edge extensions
// scored by MDL-like graph compression, with optional iterative graph
// compression. Like the original, it gravitates to small patterns with
// high frequency and degrades as data grows — the behaviour the paper's
// Figures 4–8, 10, 20 and 21 document.
package subdue

import (
	"context"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/support"
)

// Config parameterizes the miner.
type Config struct {
	// Beam is the beam width (default 4, the classic setting).
	Beam int
	// MaxBest is how many substructures to report (default 20).
	MaxBest int
	// MaxPatternEdges stops extending patterns at this size (default 40).
	MaxPatternEdges int
	// Iterations of compress-and-remine (default 1: no recompression).
	Iterations int
	// MinSupport prunes candidates below this raw embedding count
	// (default 2).
	MinSupport int
	// MaxEmbPerPattern caps embedding bookkeeping (default 512).
	MaxEmbPerPattern int
	// ExtensionBudget caps total Extensions calls per iteration. The
	// default follows classic SUBDUE's limit parameter, |E(G)|/2, so the
	// search effort — and runtime — grows with the input graph, which is
	// exactly the super-linear curve Figure 10 documents.
	ExtensionBudget int
}

func (c Config) withDefaults() Config {
	if c.Beam <= 0 {
		c.Beam = 4
	}
	if c.MaxBest <= 0 {
		c.MaxBest = 20
	}
	if c.MaxPatternEdges <= 0 {
		c.MaxPatternEdges = 40
	}
	if c.Iterations <= 0 {
		c.Iterations = 1
	}
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MaxEmbPerPattern <= 0 {
		c.MaxEmbPerPattern = 512
	}
	return c
}

// budgetFor resolves the extension budget for a graph: the configured
// value, or classic SUBDUE's default limit of |E|/2 expansions.
func (c Config) budgetFor(g *graph.Graph) int {
	if c.ExtensionBudget > 0 {
		return c.ExtensionBudget
	}
	b := g.M() / 2
	if b < 64 {
		b = 64
	}
	return b
}

// Scored couples a pattern with its compression score.
type Scored struct {
	P     *pattern.Pattern
	Score float64 // compression value; higher is better
	// Instances is the edge-disjoint instance count used by the score.
	Instances int
}

// MineContext runs beam search (plus optional compress-and-repeat rounds)
// and returns the best substructures found, best-first. Cancellation is
// observed between beam-expansion rounds and compress-and-repeat
// iterations. A cancelled run returns the best substructures scored so
// far with ctx.Err().
func MineContext(ctx context.Context, g *graph.Graph, cfg Config) ([]Scored, error) {
	cfg = cfg.withDefaults()
	var all []Scored
	var ctxErr error
	cur := g
	for it := 0; it < cfg.Iterations; it++ {
		best, err := mineOnce(ctx, cur, cfg)
		all = append(all, best...)
		if err != nil {
			ctxErr = err
			break
		}
		if len(best) == 0 || it == cfg.Iterations-1 {
			break
		}
		cur = compress(cur, best[0].P)
		if cur.M() == 0 {
			break
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Score > all[j].Score })
	if len(all) > cfg.MaxBest {
		all = all[:cfg.MaxBest]
	}
	return all, ctxErr
}

func mineOnce(ctx context.Context, g *graph.Graph, cfg Config) ([]Scored, error) {
	lim := miner.Limits{MaxEmbPerPattern: cfg.MaxEmbPerPattern}
	// SUBDUE counts vertex-disjoint instances ([20] notes both SUBDUE and
	// GREW admit only vertex-disjoint embeddings).
	instOf := func(p *pattern.Pattern) int {
		return support.Of(p.G, p.Emb, support.VertexDisjoint)
	}
	scoreOf := func(p *pattern.Pattern) (float64, int) {
		inst := instOf(p)
		return compression(g, p, inst), inst
	}
	var best []Scored
	push := func(p *pattern.Pattern) {
		s, inst := scoreOf(p)
		if inst < cfg.MinSupport || s <= 0 {
			return
		}
		best = append(best, Scored{P: p, Score: s, Instances: inst})
		sort.SliceStable(best, func(i, j int) bool { return best[i].Score > best[j].Score })
		if len(best) > cfg.MaxBest {
			best = best[:cfg.MaxBest]
		}
	}
	seeds := miner.SingleEdgeSeeds(g, cfg.MinSupport, lim, miner.RawSupport)
	type beamEntry struct {
		p     *pattern.Pattern
		score float64
	}
	var beam []beamEntry
	for _, p := range seeds {
		push(p)
		s, inst := scoreOf(p)
		if inst >= cfg.MinSupport {
			beam = append(beam, beamEntry{p, s})
		}
	}
	budget := cfg.budgetFor(g)
	for len(beam) > 0 && budget > 0 {
		if err := ctx.Err(); err != nil {
			return best, err
		}
		// Keep the beam's top-W patterns by score (beam search).
		sort.SliceStable(beam, func(i, j int) bool { return beam[i].score > beam[j].score })
		if len(beam) > cfg.Beam {
			beam = beam[:cfg.Beam]
		}
		var next []beamEntry
		var nextPs []*pattern.Pattern
		for _, be := range beam {
			if be.p.Size() >= cfg.MaxPatternEdges || budget <= 0 {
				continue
			}
			budget--
			for _, q := range miner.Extensions(g, be.p, cfg.MinSupport, lim, miner.RawSupport) {
				s, inst := scoreOf(q)
				if inst < cfg.MinSupport {
					continue
				}
				push(q)
				// Hill climbing: SUBDUE keeps expanding a substructure only
				// while its compression value improves; otherwise the parent
				// is a local optimum and the branch ends.
				if s > be.score {
					next = append(next, beamEntry{q, s})
					nextPs = append(nextPs, q)
				}
			}
		}
		nextPs = miner.DedupeStructures(nextPs)
		keep := make(map[*pattern.Pattern]bool, len(nextPs))
		for _, p := range nextPs {
			keep[p] = true
		}
		var filtered []beamEntry
		for _, be := range next {
			if keep[be.p] {
				filtered = append(filtered, be)
			}
		}
		beam = filtered
	}
	return best, nil
}

// compression is the (simplified) MDL value of a substructure: the
// description length saved by replacing each edge-disjoint instance of P
// with a single vertex. DL(graph) ≈ |V|·log2(f) + |E|·2·log2(|V|).
func compression(g *graph.Graph, p *pattern.Pattern, instances int) float64 {
	if instances < 1 {
		return 0
	}
	f := float64(g.NumLabels())
	if f < 2 {
		f = 2
	}
	dl := func(nv, ne int, n float64) float64 {
		if nv <= 0 {
			return 0
		}
		return float64(nv)*math.Log2(f) + float64(ne)*2*math.Max(1, math.Log2(math.Max(2, n)))
	}
	dlG := dl(g.N(), g.M(), float64(g.N()))
	dlP := dl(p.NV(), p.Size(), float64(p.NV()))
	// After compression: each instance loses |V(P)|−1 vertices and |E(P)|
	// edges (edges to the rest collapse onto the replacement vertex).
	nv := g.N() - instances*(p.NV()-1)
	ne := g.M() - instances*p.Size()
	if nv < 1 {
		nv = 1
	}
	if ne < 0 {
		ne = 0
	}
	dlComp := dl(nv, ne, float64(nv))
	return dlG - (dlP + dlComp)
}

// compress replaces each edge-disjoint instance of p in g with a single
// fresh-labeled vertex, re-attaching boundary edges, and returns the
// compressed graph — SUBDUE's iterative step.
func compress(g *graph.Graph, p *pattern.Pattern) *graph.Graph {
	newLabel := graph.Label(g.NumLabels() + 1000)
	// Greedy vertex-disjoint instances.
	inInstance := make(map[graph.V]int) // host vertex -> instance id
	var instances []pattern.Embedding
	for _, e := range p.Emb {
		clash := false
		for _, hv := range e {
			if _, used := inInstance[hv]; used {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		id := len(instances)
		for _, hv := range e {
			inInstance[hv] = id
		}
		instances = append(instances, e)
	}
	if len(instances) == 0 {
		return g
	}
	// Build compressed graph: instance vertices collapse; everything else
	// keeps its label.
	b := graph.NewBuilder(g.N(), g.M())
	remap := make([]graph.V, g.N())
	instVertex := make([]graph.V, len(instances))
	for i := range instVertex {
		instVertex[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if id, ok := inInstance[graph.V(v)]; ok {
			if instVertex[id] < 0 {
				instVertex[id] = b.AddVertex(newLabel)
			}
			remap[v] = instVertex[id]
		} else {
			remap[v] = b.AddVertex(g.Label(graph.V(v)))
		}
	}
	for _, e := range g.Edges() {
		u, w := remap[e.U], remap[e.W]
		if u != w {
			b.AddEdge(u, w)
		}
	}
	return b.Build()
}

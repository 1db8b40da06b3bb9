// Package origami implements an ORIGAMI-style representative-pattern miner
// for the graph-transaction setting (Hasan et al., ICDM 2007): randomized
// walks sample maximal frequent patterns, then an α-orthogonal selection
// keeps a pairwise-dissimilar representative subset.
//
// As its authors note — and Figure 15 of the SpiderMine paper exploits —
// the random walks terminate at the *first* maximal pattern they hit, so
// with many small maximal patterns in the data the sample leans heavily
// toward small patterns and misses the large ones.
package origami

import (
	"context"
	"math/rand"
	"sort"

	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/support"
	"repro/internal/txdb"
)

// Config parameterizes the miner.
type Config struct {
	// MinSupport is σ in transaction terms (# containing graphs).
	MinSupport int
	// Samples is the number of random maximal-pattern walks (default 100).
	Samples int
	// Alpha is the orthogonality threshold: kept patterns have pairwise
	// similarity <= Alpha (default 0.5).
	Alpha float64
	// Beta is the representativeness target size (default 20): selection
	// stops after Beta representatives.
	Beta int
	// Seed drives the randomized walks.
	Seed int64
	// MaxEmbPerPattern caps embedding bookkeeping (default 256).
	MaxEmbPerPattern int
	// MaxEdges safety-caps walk length (default 200).
	MaxEdges int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.Samples <= 0 {
		c.Samples = 100
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.Beta <= 0 {
		c.Beta = 20
	}
	if c.MaxEmbPerPattern <= 0 {
		c.MaxEmbPerPattern = 256
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 200
	}
	return c
}

// Result is one representative maximal pattern.
type Result struct {
	P       *pattern.Pattern
	Support int // transaction support
}

// MineContext samples maximal patterns from the database and returns the
// α-orthogonal representative set, largest-first. Cancellation is
// observed between sampling walks: a cancelled run selects
// representatives from the walks that completed and returns them with
// ctx.Err().
func MineContext(ctx context.Context, db *txdb.DB, cfg Config) ([]Result, error) {
	union, txOf := db.Union()
	supFn := func(embs []pattern.Embedding) int {
		return support.TransactionSupport(embs, txOf)
	}
	return mineOn(ctx, union, supFn, cfg)
}

// MineGraphContext runs the ORIGAMI sampler in the single-graph setting,
// under the same partial-result contract as MineContext: walks sample
// maximal frequent patterns of g directly, and support is the raw
// distinct-embedding count (the transaction measure degenerates to 0/1 on
// one graph).
func MineGraphContext(ctx context.Context, g *graph.Graph, cfg Config) ([]Result, error) {
	supFn := func(embs []pattern.Embedding) int { return len(embs) }
	return mineOn(ctx, g, supFn, cfg)
}

// mineOn is the sampler core shared by the transaction and single-graph
// settings: union is the graph the walks explore, supFn the σ-comparable
// support of an embedding list.
func mineOn(ctx context.Context, union *graph.Graph, supFn func([]pattern.Embedding) int, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	lim := miner.Limits{MaxEmbPerPattern: cfg.MaxEmbPerPattern}
	var ctxErr error

	seeds := miner.SingleEdgeSeeds(union, cfg.MinSupport, lim, supFn)
	if len(seeds) == 0 {
		return nil, ctx.Err()
	}

	var maximal []*pattern.Pattern
	for s := 0; s < cfg.Samples; s++ {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		p := seeds[rng.Intn(len(seeds))]
		// Random walk: pick uniformly among frequent one-edge extensions
		// until none remain (a maximal frequent pattern). The per-step
		// check matters for cancellation latency: one Extensions call on a
		// large pattern costs far more than a whole small walk, so a walk
		// cut short mid-flight still enters the sample (not maximal, but
		// frequent — and deterministic for a fixed cancellation boundary).
		cur := pattern.New(p.G, append([]pattern.Embedding(nil), p.Emb...))
		for cur.Size() < cfg.MaxEdges && ctx.Err() == nil {
			exts := miner.Extensions(union, cur, cfg.MinSupport, lim, supFn)
			if len(exts) == 0 {
				break
			}
			cur = exts[rng.Intn(len(exts))]
		}
		maximal = append(maximal, cur)
	}
	maximal = miner.DedupeStructures(maximal)

	// α-orthogonal selection, scanning largest-first so representatives
	// favor maximal coverage of the size spectrum.
	sort.SliceStable(maximal, func(i, j int) bool { return maximal[i].Size() > maximal[j].Size() })
	var chosen []*pattern.Pattern
	for _, p := range maximal {
		ok := true
		for _, q := range chosen {
			if Similarity(p.G, q.G) > cfg.Alpha {
				ok = false
				break
			}
		}
		if ok {
			chosen = append(chosen, p)
			if len(chosen) >= cfg.Beta {
				break
			}
		}
	}
	out := make([]Result, 0, len(chosen))
	for _, p := range chosen {
		out = append(out, Result{P: p, Support: supFn(p.Emb)})
	}
	return out, ctxErr
}

// Similarity is the Jaccard similarity of the two graphs' labeled-edge
// multisets (the feature-vector similarity ORIGAMI uses, on the cheapest
// informative feature: edges typed by endpoint labels).
func Similarity(a, b *graph.Graph) float64 {
	fa := edgeFeatures(a)
	fb := edgeFeatures(b)
	inter, union := 0, 0
	for k, ca := range fa {
		cb := fb[k]
		if ca < cb {
			inter += ca
			union += cb
		} else {
			inter += cb
			union += ca
		}
	}
	for k, cb := range fb {
		if _, ok := fa[k]; !ok {
			union += cb
		}
	}
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

func edgeFeatures(g *graph.Graph) map[[2]graph.Label]int {
	out := make(map[[2]graph.Label]int)
	for _, e := range g.Edges() {
		la, lb := g.Label(e.U), g.Label(e.W)
		if la > lb {
			la, lb = lb, la
		}
		out[[2]graph.Label{la, lb}]++
	}
	return out
}

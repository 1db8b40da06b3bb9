// Package gen generates the synthetic networks of the paper's evaluation:
// Erdős–Rényi backgrounds with injected large/small patterns (Tables 1–3),
// Barabási–Albert scale-free graphs (Fig. 13/17), and structured stand-ins
// for the two real datasets (DBLP co-authorship, Fig. 20; Jeti call graph,
// Fig. 21). All generators are deterministic given their seed.
package gen

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// ErdosRenyi builds a G(n, m) random graph with m = round(n*avgDeg/2)
// distinct edges and uniform labels drawn from [0, numLabels).
func ErdosRenyi(n int, avgDeg float64, numLabels int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(n, int(float64(n)*avgDeg/2))
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(numLabels)))
	}
	target := int(float64(n) * avgDeg / 2)
	seen := make(map[graph.Edge]struct{}, target)
	for len(seen) < target && len(seen) < n*(n-1)/2 {
		u := graph.V(rng.Intn(n))
		w := graph.V(rng.Intn(n))
		if u == w {
			continue
		}
		e := graph.NormEdge(u, w)
		if _, dup := seen[e]; dup {
			continue
		}
		seen[e] = struct{}{}
		b.AddEdge(u, w)
	}
	return b.Build()
}

// BarabasiAlbert builds a scale-free graph by preferential attachment:
// each new vertex attaches to attach existing vertices chosen with
// probability proportional to degree. Labels are uniform from
// [0, numLabels).
func BarabasiAlbert(n, attach, numLabels int, rng *rand.Rand) *graph.Graph {
	if attach < 1 {
		attach = 1
	}
	if n < attach+1 {
		n = attach + 1
	}
	b := graph.NewBuilder(n, n*attach)
	for i := 0; i < n; i++ {
		b.AddVertex(graph.Label(rng.Intn(numLabels)))
	}
	// repeated-endpoints trick: pick attachment targets uniformly from the
	// endpoint multiset, which realizes degree-proportional sampling.
	var endpoints []graph.V
	// seed clique over the first attach+1 vertices
	for i := 0; i <= attach; i++ {
		for j := i + 1; j <= attach; j++ {
			b.AddEdge(graph.V(i), graph.V(j))
			endpoints = append(endpoints, graph.V(i), graph.V(j))
		}
	}
	chosen := make([]graph.V, 0, attach)
	for v := attach + 1; v < n; v++ {
		chosen = chosen[:0]
	draw:
		for len(chosen) < attach {
			t := endpoints[rng.Intn(len(endpoints))]
			if int(t) == v {
				continue
			}
			for _, c := range chosen {
				if c == t {
					continue draw
				}
			}
			chosen = append(chosen, t)
		}
		// Append in draw order — the endpoint multiset's order feeds later
		// degree-proportional draws, so it must not depend on map iteration
		// (a map here once made the generated graph differ across runs).
		for _, t := range chosen {
			b.AddEdge(graph.V(v), t)
			endpoints = append(endpoints, graph.V(v), t)
		}
	}
	return b.Build()
}

// RandomConnectedPattern generates a connected labeled pattern with nv
// vertices: a random spanning tree plus extraEdges additional random
// edges, labels uniform from [0, numLabels). With maxDiam > 0 the tree is
// built breadth-biased until the diameter bound holds (best effort: the
// attachment point is re-drawn among shallow vertices).
func RandomConnectedPattern(nv, extraEdges, numLabels, maxDiam int, rng *rand.Rand) *graph.Graph {
	b := graph.NewBuilder(nv, nv+extraEdges)
	for i := 0; i < nv; i++ {
		b.AddVertex(graph.Label(rng.Intn(numLabels)))
	}
	depth := make([]int, nv)
	for v := 1; v < nv; v++ {
		// attach to a random earlier vertex, preferring shallow ones when a
		// diameter bound is requested
		parent := rng.Intn(v)
		if maxDiam > 0 {
			for try := 0; try < 8 && 2*(depth[parent]+1) > maxDiam; try++ {
				parent = rng.Intn(v)
			}
		}
		depth[v] = depth[parent] + 1
		b.AddEdge(graph.V(v), graph.V(parent))
	}
	added := 0
	for try := 0; added < extraEdges && try < extraEdges*16+64; try++ {
		u := graph.V(rng.Intn(nv))
		w := graph.V(rng.Intn(nv))
		if u == w || b.HasEdge(u, w) {
			continue
		}
		b.AddEdge(u, w)
		added++
	}
	return b.Build()
}

// InjectSpec describes a family of injected patterns.
type InjectSpec struct {
	NV      int // vertices per pattern
	Count   int // number of distinct patterns (the paper's m or n)
	Support int // embeddings per pattern (Lsup / Ssup)
	// SupportMax, if > Support, draws each pattern's support uniformly
	// from [Support, SupportMax] (Table 3 uses ranges like "10 to 15").
	SupportMax int
}

// SyntheticConfig assembles an ER background plus injected patterns,
// reproducing the construction of §5.1.
type SyntheticConfig struct {
	N         int
	AvgDeg    float64
	NumLabels int
	Large     InjectSpec
	Small     InjectSpec
	Seed      int64
}

// Synthetic builds the configured graph. It returns the graph and the
// injected large pattern graphs (for recovery checks in tests and
// experiments).
func Synthetic(cfg SyntheticConfig) (*graph.Graph, []*graph.Graph) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	bg := ErdosRenyi(cfg.N, cfg.AvgDeg, cfg.NumLabels, rng)

	// Rebuild into a Builder so injections can relabel and add edges.
	b := graph.NewBuilder(bg.N(), bg.M()*2)
	for v := 0; v < bg.N(); v++ {
		b.AddVertex(bg.Label(graph.V(v)))
	}
	for _, e := range bg.Edges() {
		b.AddEdge(e.U, e.W)
	}
	used := make(map[graph.V]bool)
	var larges []*graph.Graph
	inject := func(spec InjectSpec, diamBound int) []*graph.Graph {
		var pats []*graph.Graph
		for i := 0; i < spec.Count; i++ {
			extra := spec.NV / 5
			p := RandomConnectedPattern(spec.NV, extra, cfg.NumLabels, diamBound, rng)
			pats = append(pats, p)
			sup := spec.Support
			if spec.SupportMax > spec.Support {
				sup += rng.Intn(spec.SupportMax - spec.Support + 1)
			}
			for s := 0; s < sup; s++ {
				embedPattern(b, p, used, rng)
			}
		}
		return pats
	}
	larges = inject(cfg.Large, 4)
	inject(cfg.Small, 2)
	return b.Build(), larges
}

// EmbedInto plants one embedding of p into builder b, avoiding vertices
// already claimed by earlier injections (tracked in used). used must hold
// only vertices of b, each mapped to true: the free vertices are counted
// as b.N() - len(used). Exported for the transaction-database generator.
func EmbedInto(b *graph.Builder, p *graph.Graph, used map[graph.V]bool, rng *rand.Rand) {
	embedPattern(b, p, used, rng)
}

// embedPattern plants one embedding of p into the builder: it picks
// |V(p)| vertices not used by any earlier injection, overwrites their
// labels, and adds p's edges among them. When fewer unused vertices remain
// than the pattern needs, previously used vertices may be re-picked (their
// labels are overwritten, possibly perturbing an earlier injection — the
// generator prefers terminating over strict separation on tiny graphs).
func embedPattern(b *graph.Builder, p *graph.Graph, used map[graph.V]bool, rng *rand.Rand) {
	n := b.N()
	allowReuse := n-len(used) < p.N()
	chosen := make([]graph.V, 0, p.N())
	seen := make(map[graph.V]bool, p.N())
	for len(chosen) < p.N() {
		v := graph.V(rng.Intn(n))
		if (used[v] && !allowReuse) || seen[v] {
			continue
		}
		seen[v] = true
		chosen = append(chosen, v)
	}
	for i, v := range chosen {
		b.SetLabel(v, p.Label(graph.V(i)))
		used[v] = true
	}
	for _, e := range p.Edges() {
		b.AddEdge(chosen[e.U], chosen[e.W])
	}
}

// GIDConfig returns the Table 1 configuration for GID 1..5.
func GIDConfig(gid int, seed int64) SyntheticConfig {
	base := SyntheticConfig{Seed: seed}
	switch gid {
	case 1:
		base.N, base.NumLabels, base.AvgDeg = 400, 70, 2
		base.Large = InjectSpec{NV: 30, Count: 5, Support: 2}
		base.Small = InjectSpec{NV: 3, Count: 5, Support: 2}
	case 2:
		base.N, base.NumLabels, base.AvgDeg = 400, 70, 4
		base.Large = InjectSpec{NV: 30, Count: 5, Support: 2}
		base.Small = InjectSpec{NV: 3, Count: 5, Support: 2}
	case 3:
		base.N, base.NumLabels, base.AvgDeg = 1000, 250, 2
		base.Large = InjectSpec{NV: 30, Count: 5, Support: 2}
		base.Small = InjectSpec{NV: 3, Count: 5, Support: 20}
	case 4:
		base.N, base.NumLabels, base.AvgDeg = 1000, 250, 4
		base.Large = InjectSpec{NV: 30, Count: 5, Support: 2}
		base.Small = InjectSpec{NV: 3, Count: 5, Support: 20}
	case 5:
		base.N, base.NumLabels, base.AvgDeg = 600, 130, 4
		base.Large = InjectSpec{NV: 30, Count: 5, Support: 2}
		base.Small = InjectSpec{NV: 3, Count: 20, Support: 2}
	default:
		panic(fmt.Sprintf("gen: unknown GID %d (want 1..5)", gid))
	}
	return base
}

// GIDConfigLarge returns the Table 3 configuration for GID 6..10 (the
// robustness experiment, Fig. 18). Sizes follow Table 3; the small-pattern
// support range shifts upward with the GID.
func GIDConfigLarge(gid int, seed int64) SyntheticConfig {
	type row struct {
		n, f             int
		smallLo, smallHi int
	}
	rows := map[int]row{
		6:  {20490, 1064, 5, 15},
		7:  {31110, 1658, 10, 20},
		8:  {37595, 2062, 15, 25},
		9:  {47410, 2610, 20, 30},
		10: {56740, 3138, 25, 35},
	}
	r, ok := rows[gid]
	if !ok {
		panic(fmt.Sprintf("gen: unknown GID %d (want 6..10)", gid))
	}
	return SyntheticConfig{
		N:         r.n,
		AvgDeg:    3.05, // Table 3 edge counts are ≈1.52·|V|
		NumLabels: r.f,
		Large:     InjectSpec{NV: 50, Count: 5, Support: 10, SupportMax: 15},
		Small:     InjectSpec{NV: 5, Count: 50, Support: r.smallLo, SupportMax: r.smallHi},
		Seed:      seed,
	}
}

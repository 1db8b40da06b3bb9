// Package grew implements a GREW-style heuristic miner (Kuramochi &
// Karypis, ICDM 2004): maintain a set of vertex-disjoint pattern
// instances (initially one per vertex), and repeatedly contract frequent
// connection types — pairs of instance kinds joined by a host edge —
// merging connected instances into larger ones. GREW finds some large
// patterns quickly but, as the paper stresses, offers no guarantee
// relative to the complete pattern set, and admits only vertex-disjoint
// embeddings.
package grew

import (
	"context"
	"slices"
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Config parameterizes the miner.
type Config struct {
	// MinSupport is the minimum number of disjoint instance pairs for a
	// connection type to be contracted (σ; default 2).
	MinSupport int
	// MaxIterations caps merge rounds (default 16).
	MaxIterations int
	// MaxPatternVertices stops merging instances beyond this size
	// (default 256).
	MaxPatternVertices int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MaxIterations <= 0 {
		c.MaxIterations = 16
	}
	if c.MaxPatternVertices <= 0 {
		c.MaxPatternVertices = 256
	}
	return c
}

// Result is one discovered pattern with its vertex-disjoint instances.
type Result struct {
	P         *pattern.Pattern
	Instances int
}

// instance is one vertex-disjoint occurrence of a pattern kind.
type instance struct {
	vertices []graph.V
	kind     uint64 // isomorphism-invariant hash of the induced-by-instance subgraph
}

// Mine runs the iterative contraction and returns the discovered patterns
// (kinds with >= σ instances), largest-first.
func Mine(g *graph.Graph, cfg Config) []Result {
	out, _ := MineContext(context.Background(), g, cfg)
	return out
}

// MineContext is Mine with cooperative cancellation, observed between
// contraction rounds. The instance partition is consistent at every round
// boundary, so a cancelled run harvests the patterns of the rounds that
// completed — a deterministic partial result for a cancellation observed
// at a given round — and returns them with ctx.Err().
func MineContext(ctx context.Context, g *graph.Graph, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	var ctxErr error

	owner := make([]int, g.N()) // vertex -> instance index
	instances := make([]*instance, g.N())
	for v := 0; v < g.N(); v++ {
		owner[v] = v
		instances[v] = &instance{vertices: []graph.V{graph.V(v)}, kind: labelKind(g.Label(graph.V(v)))}
	}

	for iter := 0; iter < cfg.MaxIterations; iter++ {
		if err := ctx.Err(); err != nil {
			ctxErr = err
			break
		}
		// Count connection types between distinct instances.
		type connKey struct{ a, b uint64 }
		conns := make(map[connKey][]graph.Edge)
		for _, e := range g.Edges() {
			ia, ib := owner[e.U], owner[e.W]
			if ia == ib {
				continue
			}
			ka, kb := instances[ia].kind, instances[ib].kind
			ck := connKey{ka, kb}
			if ka > kb {
				ck = connKey{kb, ka}
			}
			conns[ck] = append(conns[ck], e)
		}
		// Order connection types by decreasing frequency, then by their
		// first host edge (each edge has one type, so this order is total
		// and never reads the kinds' hash values), and contract greedily;
		// each instance participates in at most one merge per round
		// (vertex-disjointness).
		keys := make([]connKey, 0, len(conns))
		for k := range conns {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			ei, ej := conns[keys[i]], conns[keys[j]]
			if len(ei) != len(ej) {
				return len(ei) > len(ej)
			}
			if ei[0].U != ej[0].U {
				return ei[0].U < ej[0].U
			}
			return ei[0].W < ej[0].W
		})
		mergedAny := false
		usedInstance := make(map[int]bool)
		for _, ck := range keys {
			edges := conns[ck]
			// Count disjoint pairs first.
			var pairs []graph.Edge
			seen := make(map[int]bool)
			for _, e := range edges {
				ia, ib := owner[e.U], owner[e.W]
				if seen[ia] || seen[ib] || usedInstance[ia] || usedInstance[ib] {
					continue
				}
				if len(instances[ia].vertices)+len(instances[ib].vertices) > cfg.MaxPatternVertices {
					continue
				}
				seen[ia] = true
				seen[ib] = true
				pairs = append(pairs, e)
			}
			if len(pairs) < cfg.MinSupport {
				continue
			}
			// Contract every pair.
			for _, e := range pairs {
				ia, ib := owner[e.U], owner[e.W]
				usedInstance[ia] = true
				usedInstance[ib] = true
				ni := &instance{
					vertices: append(append([]graph.V(nil), instances[ia].vertices...), instances[ib].vertices...),
				}
				sub, _ := g.Induced(ni.vertices)
				ni.kind = canon.Invariant(sub)
				instances = append(instances, ni)
				id := len(instances) - 1
				for _, v := range ni.vertices {
					owner[v] = id
				}
				mergedAny = true
			}
		}
		if !mergedAny {
			break
		}
	}

	// Collect surviving kinds: group live instances by kind, verify with
	// exact isomorphism, report kinds with >= σ instances.
	live := make(map[int]*instance)
	for v := 0; v < g.N(); v++ {
		live[owner[v]] = instances[owner[v]]
	}
	byKind := make(map[uint64][]*instance)
	for _, ins := range live {
		if len(ins.vertices) < 2 {
			continue
		}
		byKind[ins.kind] = append(byKind[ins.kind], ins)
	}
	var out []Result
	for _, group := range byKind {
		if len(group) < cfg.MinSupport {
			continue
		}
		// Build the representative pattern and re-express instances as
		// embeddings via isomorphism mapping (skipping hash collisions).
		sort.Slice(group, func(i, j int) bool { return group[i].vertices[0] < group[j].vertices[0] })
		repr, reprVerts := g.Induced(group[0].vertices)
		embs := []pattern.Embedding{pattern.Embedding(reprVerts)}
		for _, ins := range group[1:] {
			sub, verts := g.Induced(ins.vertices)
			mapping := canon.IsomorphismMapping(sub, repr)
			if mapping == nil {
				continue
			}
			emb := make(pattern.Embedding, len(verts))
			for sv, rv := range mapping {
				emb[rv] = verts[sv]
			}
			embs = append(embs, emb)
		}
		if len(embs) < cfg.MinSupport {
			continue
		}
		out = append(out, Result{P: pattern.New(repr, embs), Instances: len(embs)})
	}
	// Largest first, then most instances, then by the smallest host
	// vertex of the first instance: instances are vertex-disjoint, so the
	// order is total and map iteration above cannot reach it.
	sort.Slice(out, func(i, j int) bool {
		if out[i].P.Size() != out[j].P.Size() {
			return out[i].P.Size() > out[j].P.Size()
		}
		if out[i].Instances != out[j].Instances {
			return out[i].Instances > out[j].Instances
		}
		return slices.Min(out[i].P.Emb[0]) < slices.Min(out[j].P.Emb[0])
	})
	return out, ctxErr
}

func labelKind(l graph.Label) uint64 {
	// disjoint from subgraph invariants with overwhelming probability
	return 0x9e3779b97f4a7c15 ^ uint64(l)*0xbf58476d1ce4e5b9
}

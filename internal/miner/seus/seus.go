// Package seus implements a SEuS-style miner (Ghazizadeh & Chawathe,
// Discovery Science 2002): a label-collapsed summary graph provides an
// upper bound on candidate support, and only summary-frequent candidates
// are verified against the full graph. The summary's strength is a small
// number of highly frequent structures; with many low-frequency patterns
// it collapses everything together and only small structures survive
// verification — the behaviour seen in Figures 4–8.
package seus

import (
	"context"
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Config parameterizes the miner.
type Config struct {
	// MinSupport is the verified-support threshold σ.
	MinSupport int
	// MaxEdges caps candidate size (default 5; SEuS reports small
	// structures).
	MaxEdges int
	// MaxCandidates bounds summary-graph enumeration (default 5000).
	MaxCandidates int
	// VerifyLimit caps embeddings counted per candidate (default 4·σ).
	VerifyLimit int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MaxEdges <= 0 {
		c.MaxEdges = 5
	}
	if c.MaxCandidates <= 0 {
		c.MaxCandidates = 5000
	}
	if c.VerifyLimit <= 0 {
		c.VerifyLimit = 4 * c.MinSupport
	}
	return c
}

// Result is one verified frequent structure.
type Result struct {
	P       *pattern.Pattern
	Support int
}

// Summary is the label-collapsed summary graph: one node per label; edge
// weight counts host edges between the label classes.
type Summary struct {
	Labels []graph.Label
	index  map[graph.Label]int
	Weight map[[2]int]int // (label index pair, i<=j) -> host edge count
}

// BuildSummary collapses g by label.
func BuildSummary(g *graph.Graph) *Summary {
	s := &Summary{index: make(map[graph.Label]int), Weight: make(map[[2]int]int)}
	for v := 0; v < g.N(); v++ {
		l := g.Label(graph.V(v))
		if _, ok := s.index[l]; !ok {
			s.index[l] = len(s.Labels)
			s.Labels = append(s.Labels, l)
		}
	}
	for _, e := range g.Edges() {
		i, j := s.index[g.Label(e.U)], s.index[g.Label(e.W)]
		if i > j {
			i, j = j, i
		}
		s.Weight[[2]int{i, j}]++
	}
	return s
}

// MineContext enumerates connected candidate structures from the summary
// graph (every candidate edge's summary weight must reach σ — the
// upper-bound prune) and verifies each against g by embedding counting.
// Cancellation is observed per candidate verification (the expensive
// step — each one is an embedding count against the full graph). A
// cancelled run returns the structures verified so far with ctx.Err().
func MineContext(ctx context.Context, g *graph.Graph, cfg Config) ([]Result, error) {
	cfg = cfg.withDefaults()
	var ctxErr error
	sum := BuildSummary(g)

	// Candidate generation: BFS over "summary subgraphs" represented as
	// label sequences with edges; start from frequent summary edges.
	type candidate struct {
		labels []graph.Label
		edges  []graph.Edge
	}
	var frontier []candidate
	var edgeKeys [][2]int
	for k, w := range sum.Weight {
		if w >= cfg.MinSupport {
			edgeKeys = append(edgeKeys, k)
		}
	}
	sort.Slice(edgeKeys, func(i, j int) bool {
		if edgeKeys[i][0] != edgeKeys[j][0] {
			return edgeKeys[i][0] < edgeKeys[j][0]
		}
		return edgeKeys[i][1] < edgeKeys[j][1]
	})
	for _, k := range edgeKeys {
		frontier = append(frontier, candidate{
			labels: []graph.Label{sum.Labels[k[0]], sum.Labels[k[1]]},
			edges:  []graph.Edge{{U: 0, W: 1}},
		})
	}
	seen := make(map[uint64]bool)
	var results []Result
	generated := 0
	verify := func(c candidate) {
		pg := graph.FromEdges(c.labels, c.edges)
		inv := canon.Invariant(pg)
		if seen[inv] {
			return
		}
		seen[inv] = true
		count := canon.CountEmbeddings(pg, g, cfg.VerifyLimit)
		if count >= cfg.MinSupport {
			embs := canon.FindEmbeddings(pg, g, cfg.VerifyLimit)
			pes := make([]pattern.Embedding, len(embs))
			for i, m := range embs {
				pes[i] = pattern.Embedding(m)
			}
			results = append(results, Result{P: pattern.New(pg, pes), Support: count})
		}
	}
	for _, c := range frontier {
		if ctx.Err() != nil {
			break
		}
		verify(c)
	}
	for len(frontier) > 0 && generated < cfg.MaxCandidates && ctx.Err() == nil {
		var next []candidate
		for _, c := range frontier {
			if len(c.edges) >= cfg.MaxEdges || generated >= cfg.MaxCandidates {
				break
			}
			// extend: attach a new label node to any existing node via a
			// frequent summary edge
			for vi := range c.labels {
				li := sum.index[c.labels[vi]]
				for _, k := range edgeKeys {
					var other int
					switch li {
					case k[0]:
						other = k[1]
					case k[1]:
						other = k[0]
					default:
						continue
					}
					nc := candidate{
						labels: append(append([]graph.Label(nil), c.labels...), sum.Labels[other]),
						edges:  append(append([]graph.Edge(nil), c.edges...), graph.Edge{U: graph.V(vi), W: graph.V(len(c.labels))}),
					}
					generated++
					next = append(next, nc)
					if generated >= cfg.MaxCandidates {
						break
					}
				}
				if generated >= cfg.MaxCandidates {
					break
				}
			}
		}
		for _, c := range next {
			if ctx.Err() != nil {
				break
			}
			verify(c)
		}
		frontier = next
	}
	ctxErr = ctx.Err()
	sort.SliceStable(results, func(i, j int) bool {
		if results[i].P.Size() != results[j].P.Size() {
			return results[i].P.Size() > results[j].P.Size()
		}
		return results[i].Support > results[j].Support
	})
	return results, ctxErr
}

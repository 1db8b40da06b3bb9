// Package support implements pattern-support computation for the
// single-graph setting, where overlapping embeddings make "frequency"
// ambiguous. Three measures are provided:
//
//   - CountAll: the raw number of distinct embeddings (subgraphs).
//   - EdgeDisjoint: the maximum number of pairwise edge-disjoint
//     embeddings, lower-bounded greedily (Vanetik et al.; Kuramochi &
//     Karypis use the same notion with an anchor-edge-list).
//   - HarmfulOverlap: the Fiedler–Borgelt measure adopted by SpiderMine —
//     two embeddings conflict only if they overlap *harmfully*, i.e. they
//     share a host vertex playing equivalent roles in the pattern; an
//     independent set of the conflict graph is counted greedily.
//
// All measures are anti-monotone in their exact form; the greedy
// approximations preserve anti-monotonicity closely enough for mining (the
// paper relies on the same downward-closure argument).
//
// The exact measures form a refinement hierarchy — VertexDisjoint <=
// EdgeDisjoint <= CountAll and VertexDisjoint <= HarmfulOverlap <=
// CountAll — because every vertex-disjoint embedding set is also
// edge-disjoint and free of harmful overlaps. A lone greedy scan does
// not inherit the hierarchy (an early pick under the looser conflict
// relation can block several embeddings the stricter greedy would have
// kept), so EdgeDisjoint and HarmfulOverlap return the max of their own
// greedy bound and the vertex-disjoint one; both remain valid lower
// bounds of the exact measure, and the hierarchy holds by construction
// (TestQuickMeasureHierarchy).
package support

import (
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// Measure selects a support definition.
type Measure int

const (
	// CountAll counts distinct embeddings with no overlap constraint.
	CountAll Measure = iota
	// EdgeDisjoint counts a maximal set of pairwise edge-disjoint
	// embeddings (greedy maximum-independent-set lower bound).
	EdgeDisjoint
	// HarmfulOverlap counts a maximal set of embeddings with no harmful
	// overlaps (Fiedler–Borgelt), the paper's default.
	HarmfulOverlap
	// VertexDisjoint counts a maximal set of embeddings sharing no host
	// vertex at all (the strictest notion; SUBDUE and GREW count instances
	// this way).
	VertexDisjoint
)

func (m Measure) String() string {
	switch m {
	case CountAll:
		return "all-embeddings"
	case EdgeDisjoint:
		return "edge-disjoint"
	case HarmfulOverlap:
		return "harmful-overlap"
	case VertexDisjoint:
		return "vertex-disjoint"
	default:
		return "unknown"
	}
}

// Of computes the support of a pattern graph given its embedding list.
func Of(p *graph.Graph, embs []pattern.Embedding, m Measure) int {
	switch m {
	case CountAll:
		return len(embs)
	case EdgeDisjoint:
		return edgeDisjoint(p, embs)
	case HarmfulOverlap:
		return harmfulOverlap(p, embs)
	case VertexDisjoint:
		return vertexDisjoint(p, embs)
	default:
		return len(embs)
	}
}

// vertexDisjoint greedily selects embeddings with pairwise-disjoint vertex
// images, scanned in deterministic image-key order.
func vertexDisjoint(p *graph.Graph, embs []pattern.Embedding) int {
	if len(embs) <= 1 {
		return len(embs)
	}
	order := sortedOrder(p, embs)
	used := make(map[graph.V]struct{}, len(embs)*p.N())
	count := 0
	for _, idx := range order {
		e := embs[idx]
		ok := true
		for _, hv := range e {
			if _, clash := used[hv]; clash {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, hv := range e {
			used[hv] = struct{}{}
		}
		count++
	}
	return count
}

// edgeDisjoint greedily selects embeddings whose host edge sets are
// pairwise disjoint. Embeddings are scanned in a deterministic order
// (sorted by image key) so results are reproducible.
func edgeDisjoint(p *graph.Graph, embs []pattern.Embedding) int {
	if len(embs) <= 1 {
		return len(embs)
	}
	pe := p.Edges()
	order := sortedOrder(p, embs)
	used := make(map[graph.Edge]struct{}, len(embs)*len(pe))
	count := 0
	for _, i := range order {
		e := embs[i]
		ok := true
		for _, pedge := range pe {
			he := graph.NormEdge(e[pedge.U], e[pedge.W])
			if _, clash := used[he]; clash {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, pedge := range pe {
			used[graph.NormEdge(e[pedge.U], e[pedge.W])] = struct{}{}
		}
		count++
	}
	if count < len(embs) {
		// A vertex-disjoint set is edge-disjoint, so its greedy bound is
		// also a valid edge-disjoint lower bound — taking the max keeps
		// the measure hierarchy (VertexDisjoint <= EdgeDisjoint) intact
		// against greedy scan-order artifacts.
		if vd := vertexDisjoint(p, embs); vd > count {
			count = vd
		}
	}
	return count
}

// harmfulOverlap greedily selects embeddings such that no selected pair
// harmfully overlaps. Overlap of host vertex hv between embeddings e1
// (at pattern position i) and e2 (at position j) is harmful when pattern
// vertices i and j are equivalent — approximated by equal WL colors of the
// pattern graph, which subsumes every automorphism orbit.
func harmfulOverlap(p *graph.Graph, embs []pattern.Embedding) int {
	if len(embs) <= 1 {
		return len(embs)
	}
	colors := canon.VertexColors(p)
	order := sortedOrder(p, embs)
	// For selected embeddings, remember which (host vertex, color) slots
	// are occupied; a new embedding conflicts if it wants an occupied slot.
	type slot struct {
		hv    graph.V
		color uint64
	}
	used := make(map[slot]struct{}, len(embs)*p.N())
	count := 0
	for _, idx := range order {
		e := embs[idx]
		ok := true
		for pv, hv := range e {
			if _, clash := used[slot{hv, colors[pv]}]; clash {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for pv, hv := range e {
			used[slot{hv, colors[pv]}] = struct{}{}
		}
		count++
	}
	if count < len(embs) {
		// A vertex-disjoint set has no harmful overlaps, so its greedy
		// bound is also a valid harmful-overlap lower bound — the max
		// keeps VertexDisjoint <= HarmfulOverlap against greedy
		// scan-order artifacts.
		if vd := vertexDisjoint(p, embs); vd > count {
			count = vd
		}
	}
	return count
}

// sortedOrder returns embedding indices ordered by image key, giving the
// greedy MIS a deterministic scan order.
func sortedOrder(p *graph.Graph, embs []pattern.Embedding) []int {
	keys := make([]string, len(embs))
	for i, e := range embs {
		keys[i] = e.ImageKey(p)
	}
	order := make([]int, len(embs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return keys[order[a]] < keys[order[b]] })
	return order
}

// TransactionSupport counts the number of distinct transaction graphs an
// embedding list touches, given a host-vertex → transaction-id assignment
// (see internal/txdb). This is the graph-transaction support |P_sup|.
func TransactionSupport(embs []pattern.Embedding, txOf []int) int {
	seen := make(map[int]struct{})
	for _, e := range embs {
		if len(e) == 0 {
			continue
		}
		seen[txOf[e[0]]] = struct{}{}
	}
	return len(seen)
}

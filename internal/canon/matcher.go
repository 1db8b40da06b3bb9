package canon

import (
	"sync"

	"repro/internal/graph"
)

// Matcher enumerates embeddings of small connected patterns in a host
// graph. All search state — the partial mapping, the used-host set, the
// match order, the distinct-image table and the image-key buffer — lives
// in the Matcher and is reused across calls, so a warm Matcher runs its
// inner loop without heap allocation. A Matcher is not safe for concurrent
// use; callers that match from several goroutines keep one Matcher each
// (or use the package-level functions, which draw from a pool).
//
// Candidate generation is index-driven: the root pattern vertex is chosen
// as the one whose label is rarest in the host (ties broken toward higher
// pattern degree), and its candidates come from the host's label index
// rather than a scan of all N vertices. Every candidate is filtered by
// label, degree, and the neighbor-label frequency sketch
// (graph.SketchDominates) before the exact adjacency checks run.
type Matcher struct {
	p, g *graph.Graph
	opt  MatchOptions
	fn   func(Mapping) bool

	order   []graph.V // pattern vertices in match order
	parents []int     // index into order of an earlier neighbor, -1 for root
	mapping Mapping   // pattern vertex -> host vertex, -1 unmapped
	used    []bool    // host vertex already in the partial image
	count   int

	seen    map[[2]uint64]struct{} // distinct-image table (hash-based)
	pEdges  []graph.Edge           // pattern edge list, cached per Enumerate
	imgBuf  []graph.Edge           // image edge buffer for hashing
	visited []bool                 // order-construction scratch
	nbrBuf  []graph.V              // order-construction scratch
}

// NewMatcher returns an empty Matcher. The zero value is also valid.
func NewMatcher() *Matcher { return &Matcher{} }

var matcherPool = sync.Pool{New: func() any { return new(Matcher) }}

// Enumerate finds mappings of the connected pattern p into host g
// (non-induced subgraph isomorphism: every pattern edge must map to a host
// edge; extra host edges between mapped vertices are allowed, as befits
// "subgraph of G" embeddings). fn is called per result; returning false
// stops the search. Returns the number of results produced.
//
// The Mapping passed to fn is the Matcher's live buffer, valid only for
// the duration of the callback: callers that retain it must Clone it.
//
// Disconnected patterns are rejected with a zero count: the miners only
// ever produce connected patterns, and anchored search requires
// connectivity.
func (mt *Matcher) Enumerate(p, g *graph.Graph, opt MatchOptions, fn func(Mapping) bool) int {
	np := p.N()
	if np == 0 {
		return 0
	}
	mt.p, mt.g, mt.opt, mt.fn = p, g, opt, fn
	root := graph.V(0)
	if opt.Anchor < 0 {
		root = mt.pickRoot()
	}
	if !mt.buildOrder(root) {
		mt.release()
		return 0 // disconnected pattern
	}
	if cap(mt.mapping) < np {
		mt.mapping = make(Mapping, np)
	}
	mt.mapping = mt.mapping[:np]
	for i := range mt.mapping {
		mt.mapping[i] = -1
	}
	if cap(mt.used) < g.N() {
		mt.used = make([]bool, g.N())
	} else {
		// The backtracker resets every bit it sets, so the prefix in use is
		// already clear; only the slice header needs adjusting.
		mt.used = mt.used[:cap(mt.used)]
	}
	mt.count = 0
	if opt.DistinctImages {
		mt.pEdges = appendEdges(mt.pEdges[:0], p)
		if mt.seen == nil {
			mt.seen = make(map[[2]uint64]struct{})
		} else {
			clear(mt.seen)
		}
	}
	mt.try(0)
	n := mt.count
	mt.release()
	return n
}

// release drops references that would otherwise pin the graphs (scratch
// buffers are kept for reuse).
func (mt *Matcher) release() {
	mt.p, mt.g, mt.fn = nil, nil, nil
}

// pickRoot returns the pattern vertex whose label is rarest in the host;
// ties break toward higher pattern degree, then lower id. Starting the
// search from the most selective vertex shrinks the root candidate set
// from N to the smallest label class.
func (mt *Matcher) pickRoot() graph.V {
	best := graph.V(0)
	bestCount := mt.g.LabelCount(mt.p.Label(0))
	bestDeg := mt.p.Degree(0)
	for v := 1; v < mt.p.N(); v++ {
		c := mt.g.LabelCount(mt.p.Label(graph.V(v)))
		d := mt.p.Degree(graph.V(v))
		if c < bestCount || (c == bestCount && d > bestDeg) {
			best, bestCount, bestDeg = graph.V(v), c, d
		}
	}
	return best
}

// buildOrder constructs a connected BFS match order rooted at root, with
// each vertex's children expanded in descending pattern-degree order so
// highly constrained vertices are matched early. Returns false if the
// pattern is disconnected.
func (mt *Matcher) buildOrder(root graph.V) bool {
	p := mt.p
	np := p.N()
	mt.order = mt.order[:0]
	mt.parents = mt.parents[:0]
	if cap(mt.visited) < np {
		mt.visited = make([]bool, np)
	}
	visited := mt.visited[:np]
	for i := range visited {
		visited[i] = false
	}
	mt.order = append(mt.order, root)
	mt.parents = append(mt.parents, -1)
	visited[root] = true
	for i := 0; i < len(mt.order); i++ {
		v := mt.order[i]
		// Insertion-sort the unvisited neighbors by descending degree into
		// the scratch buffer (pattern degrees are tiny).
		mt.nbrBuf = mt.nbrBuf[:0]
		for _, w := range p.Neighbors(v) {
			if visited[w] {
				continue
			}
			visited[w] = true
			j := len(mt.nbrBuf)
			mt.nbrBuf = append(mt.nbrBuf, w)
			for j > 0 && p.Degree(mt.nbrBuf[j-1]) < p.Degree(w) {
				mt.nbrBuf[j] = mt.nbrBuf[j-1]
				j--
			}
			mt.nbrBuf[j] = w
		}
		for _, w := range mt.nbrBuf {
			mt.order = append(mt.order, w)
			mt.parents = append(mt.parents, i)
		}
	}
	return len(mt.order) == np
}

// try extends the partial mapping at the given depth. Returns false to
// abort the entire search.
func (mt *Matcher) try(depth int) bool {
	if depth == len(mt.order) {
		return mt.emit()
	}
	p, g := mt.p, mt.g
	pv := mt.order[depth]
	var candidates []graph.V
	if parent := mt.parents[depth]; parent >= 0 {
		candidates = g.Neighbors(mt.mapping[mt.order[parent]])
	} else if mt.opt.Anchor >= 0 {
		if int(mt.opt.Anchor) >= g.N() {
			return true
		}
		candidates = anchorBuf(&mt.nbrBuf, mt.opt.Anchor)
	} else {
		candidates = g.VerticesWithLabel(p.Label(pv))
	}
	pLabel := p.Label(pv)
	pDeg := p.Degree(pv)
	pSketch := p.NeighborSketch(pv)
	pNbrs := p.Neighbors(pv)
	for _, hv := range candidates {
		if mt.used[hv] ||
			g.Label(hv) != pLabel ||
			g.Degree(hv) < pDeg ||
			!graph.SketchDominates(g.NeighborSketch(hv), pSketch) {
			continue
		}
		ok := true
		for _, pw := range pNbrs {
			if hw := mt.mapping[pw]; hw >= 0 && !g.HasEdge(hv, hw) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		mt.mapping[pv] = hv
		mt.used[hv] = true
		cont := mt.try(depth + 1)
		mt.mapping[pv] = -1
		mt.used[hv] = false
		if !cont {
			return false
		}
	}
	return true
}

// anchorBuf returns a single-element candidate slice without allocating
// (the order-construction scratch is free during the search).
func anchorBuf(buf *[]graph.V, v graph.V) []graph.V {
	*buf = append((*buf)[:0], v)
	return *buf
}

// emit reports one complete mapping, deduplicating by image when
// requested. Returns false to abort the search.
func (mt *Matcher) emit() bool {
	if mt.opt.DistinctImages {
		h := mt.imageHash()
		if _, dup := mt.seen[h]; dup {
			return true
		}
		mt.seen[h] = struct{}{}
	}
	mt.count++
	if !mt.fn(mt.mapping) {
		return false
	}
	return mt.opt.Limit == 0 || mt.count < mt.opt.Limit
}

// imageHash hashes the sorted host edge list of the current mapping's
// image — the allocation-free equivalent of ImageKey.
func (mt *Matcher) imageHash() [2]uint64 {
	mt.imgBuf = mt.imgBuf[:0]
	for _, e := range mt.pEdges {
		mt.imgBuf = append(mt.imgBuf, graph.NormEdge(mt.mapping[e.U], mt.mapping[e.W]))
	}
	graph.SortEdges(mt.imgBuf)
	return HashEdges(mt.imgBuf)
}

// HashEdges returns a 128-bit hash of an edge list via two independent
// 64-bit FNV-style streams (order-sensitive: sort first when the hash
// must identify the edge set). A collision between distinct edge lists
// makes the caller treat the second as a duplicate of the first —
// silently dropping an embedding or skipping a merge candidate — so two
// streams keep that probability astronomically small. It is one of two
// image hashes, chosen by input shape: the matcher's images are a few
// edges and the merge unions arrive sorted, so sort-then-FNV suits them,
// while ImageHash hashes an unsorted image as a set without sorting.
func HashEdges(es []graph.Edge) [2]uint64 {
	a := uint64(14695981039346656037)
	b := uint64(0xcbf29ce484222325 ^ 0x9e3779b97f4a7c15)
	for _, e := range es {
		x := uint64(uint32(e.U))<<32 | uint64(uint32(e.W))
		a = (a ^ x) * 1099511628211
		b = (b ^ x) * 0x100000001b3
		b ^= b >> 29
	}
	return [2]uint64{a, b}
}

// appendEdges appends p's edges (U < W, lexicographic) to buf without the
// intermediate allocation of p.Edges().
func appendEdges(buf []graph.Edge, p *graph.Graph) []graph.Edge {
	for u := 0; u < p.N(); u++ {
		for _, w := range p.Neighbors(graph.V(u)) {
			if graph.V(u) < w {
				buf = append(buf, graph.Edge{U: graph.V(u), W: w})
			}
		}
	}
	return buf
}

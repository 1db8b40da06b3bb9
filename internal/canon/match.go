package canon

import (
	"repro/internal/graph"
)

// Mapping assigns each pattern vertex (index) a host vertex.
type Mapping []graph.V

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping { return append(Mapping(nil), m...) }

// ImageKey returns a canonical string key for the subgraph image of the
// mapping: the sorted list of host edges that pattern edges map to. Two
// mappings with equal ImageKey denote the same embedding (same subgraph of
// the host), e.g. mappings differing only by a pattern automorphism.
func ImageKey(p *graph.Graph, m Mapping) string {
	return string(AppendImageKey(nil, p, m))
}

// AppendImageKey appends the ImageKey bytes of mapping m to buf and
// returns the extended buffer. Callers that look keys up with
// map[string(buf)] and reuse buf across embeddings dedupe without
// allocating per probe (the Go compiler elides the string conversion for
// map reads); the Matcher itself dedupes by hash and never materializes
// keys at all.
func AppendImageKey(buf []byte, p *graph.Graph, m Mapping) []byte {
	var stack [32]graph.Edge
	edges := AppendMappedEdges(stack[:0], p, m)
	graph.SortEdges(edges)
	for _, e := range edges {
		buf = appendVarint(buf, uint64(e.U))
		buf = appendVarint(buf, uint64(e.W))
	}
	return buf
}

// ImageHash returns a 128-bit hash of the host subgraph image of mapping
// m — the set of host edges NormEdge(m[u], m[w]) over p's edges — for
// dedupe sets that would otherwise materialize an ImageKey string per
// probe. Growth's image dedupe and pattern.DedupeEmbeddings use it.
//
// It hashes the image as a set: each of two lanes is the wrapping sum of
// mix64 over the normalized edges, under its own offset, so it needs no
// sort and no edge buffer and does not depend on the order p lists its
// edges in. An image's edges are distinct (m is injective), so the set
// identifies the image. The package has two image hashes, chosen by the
// shape of the input: HashEdges hashes an edge list in order, and its
// callers hash lists that are tiny or already sorted (the matcher's
// emitted mappings, merge unions), where sort-then-FNV measured faster;
// here the edges arrive unsorted, one image per embedding.
//
// The collision trade-off: an additive hash is weaker than a sequential
// one on structured inputs, because two edge sets collide in a lane
// whenever their mixed words sum alike. If mix64 behaves like a random
// function that has probability about 2^-64 per lane, and the two lanes
// use different offsets; TestImageHashMatchesReference (internal/
// spidermine) checks the dedupe decisions against sort-then-FNV on hubs,
// grids and mining working sets. As with HashEdges, a collision makes the
// caller treat the second image as a duplicate and drop that embedding.
// Image hashes are derived state: nothing may persist them or order by
// them.
func ImageHash(p *graph.Graph, m Mapping) [2]uint64 {
	var h [2]uint64
	for u := 0; u < p.N(); u++ {
		for _, w := range p.Neighbors(graph.V(u)) {
			if graph.V(u) < w {
				e := graph.NormEdge(m[u], m[w])
				x := uint64(uint32(e.U))<<32 | uint64(uint32(e.W))
				h[0] += mix64(x + golden)
				h[1] += mix64(x ^ imageLane)
			}
		}
	}
	return h
}

// imageLane is ImageHash's second-lane offset (the first adds golden).
const imageLane = 0xd1b54a32d192ed03

// AppendMappedEdges appends the host image of p's edge set under m —
// NormEdge(m[u], m[w]) for every pattern edge {u, w} — to buf, unsorted.
func AppendMappedEdges(buf []graph.Edge, p *graph.Graph, m Mapping) []graph.Edge {
	for u := 0; u < p.N(); u++ {
		for _, w := range p.Neighbors(graph.V(u)) {
			if graph.V(u) < w {
				buf = append(buf, graph.NormEdge(m[u], m[w]))
			}
		}
	}
	return buf
}

func appendVarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}

// MatchOptions controls embedding enumeration.
type MatchOptions struct {
	// Limit stops enumeration after this many results (0 = unlimited).
	Limit int
	// Anchor, if >= 0, forces pattern vertex 0 to map to this host vertex.
	Anchor graph.V
	// DistinctImages dedupes mappings that cover the same host subgraph
	// (automorphic re-mappings), which matches the paper's definition of an
	// embedding as a subgraph of G.
	DistinctImages bool
}

// EnumerateEmbeddings finds mappings of the connected pattern p into host g
// using a pooled Matcher; see Matcher.Enumerate for the search semantics.
// fn receives its own copy of each mapping (safe to retain); hot paths
// that want the allocation-free contract should hold a Matcher and call
// Enumerate directly.
func EnumerateEmbeddings(p, g *graph.Graph, opt MatchOptions, fn func(Mapping) bool) int {
	mt := matcherPool.Get().(*Matcher)
	n := mt.Enumerate(p, g, opt, func(m Mapping) bool { return fn(m.Clone()) })
	matcherPool.Put(mt)
	return n
}

// CountEmbeddings returns the number of distinct embeddings (subgraph
// images) of p in g, stopping at limit if limit > 0.
func CountEmbeddings(p, g *graph.Graph, limit int) int {
	mt := matcherPool.Get().(*Matcher)
	n := mt.Enumerate(p, g, MatchOptions{Limit: limit, Anchor: -1, DistinctImages: true},
		func(Mapping) bool { return true })
	matcherPool.Put(mt)
	return n
}

// HasEmbedding reports whether p occurs in g at all.
func HasEmbedding(p, g *graph.Graph) bool {
	return CountEmbeddings(p, g, 1) > 0
}

// FindEmbeddings returns up to limit distinct embeddings of p in g
// (limit <= 0 means all).
func FindEmbeddings(p, g *graph.Graph, limit int) []Mapping {
	if limit < 0 {
		limit = 0
	}
	var out []Mapping
	EnumerateEmbeddings(p, g, MatchOptions{Limit: limit, Anchor: -1, DistinctImages: true},
		func(m Mapping) bool {
			out = append(out, m)
			return true
		})
	return out
}

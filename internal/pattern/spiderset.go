package pattern

import (
	"sort"

	"repro/internal/canon"
	"repro/internal/graph"
)

// headMarker is added to the head vertex's label when canonicalizing a
// rooted spider so the head is distinguishable from same-labeled vertices.
// Pattern labels in practice are tiny integers, so no collision arises.
const headMarker graph.Label = 1 << 24

// RootedSpiderCodeWith returns a canonical code for the r-neighborhood of
// v inside p, rooted at v: the code of s_h[v] in the paper's notation. Two
// vertices get equal codes iff their r-neighborhood subgraphs are
// isomorphic by a head-preserving isomorphism. It canonicalizes through
// the caller's Canonizer, so hot paths that code many spiders reuse one
// Canonizer's scratch (and its Runs/Nodes counters) across all of them.
func RootedSpiderCodeWith(cz *canon.Canonizer, p *graph.Graph, v graph.V, r int) string {
	sub, orig := p.Neighborhood(v, r)
	// Find v's index in the neighborhood and individualize its label.
	b := graph.NewBuilder(sub.N(), sub.M())
	for i := 0; i < sub.N(); i++ {
		l := sub.Label(graph.V(i))
		if orig[i] == v {
			l += headMarker
		}
		b.AddVertex(l)
	}
	for _, e := range sub.Edges() {
		b.AddEdge(e.U, e.W)
	}
	return cz.Code(b.Build())
}

// SpiderSetWith returns the spider-set representation S[P]: the multiset
// of rooted r-neighborhood spider codes, one per pattern vertex, sorted,
// each canonicalized through the caller's Canonizer. (Figure 3 of the
// paper; Theorem 2: isomorphic patterns have equal spider-sets.)
func SpiderSetWith(cz *canon.Canonizer, p *graph.Graph, r int) []string {
	codes := make([]string, p.N())
	for v := 0; v < p.N(); v++ {
		codes[v] = RootedSpiderCodeWith(cz, p, graph.V(v), r)
	}
	sort.Strings(codes)
	return codes
}

// SpiderSetSignatureWith returns a 64-bit hash of the spider-set
// representation at radius r, cached on the pattern. Patterns with unequal
// signatures cannot be isomorphic (spider-set pruning); equal signatures
// require an exact check. A cache miss is computed through the caller's
// Canonizer. The cache itself is unsynchronized: concurrent calls are only
// safe on distinct patterns.
func (p *Pattern) SpiderSetSignatureWith(cz *canon.Canonizer, r int) uint64 {
	if p.sigOK && p.sigRadius == r {
		return p.spiderSig
	}
	p.spiderSig = HashSpiderSet(SpiderSetWith(cz, p.G, r))
	p.sigOK = true
	p.sigRadius = r
	return p.spiderSig
}

// HashSpiderSet hashes a sorted spider-set into 64 bits.
func HashSpiderSet(codes []string) uint64 {
	var h uint64 = 14695981039346656037
	const prime = 1099511628211
	for _, c := range codes {
		for i := 0; i < len(c); i++ {
			h ^= uint64(c[i])
			h *= prime
		}
		h ^= 0xfe
		h *= prime
	}
	return h
}

// Package pattern defines the frequent-pattern representation shared by
// SpiderMine and the baseline miners: a small labeled pattern graph
// together with the explicit list of its embeddings in the host graph, the
// spider-set representation of Section 4.2.2, and boundary bookkeeping for
// spider growth.
package pattern

import (
	"fmt"
	"sync"

	"repro/internal/canon"
	"repro/internal/graph"
)

// Embedding maps each pattern vertex (by index) to a host vertex. It is a
// concrete subgraph of the host graph (the paper's e_P).
type Embedding []graph.V

// Clone returns a copy of the embedding.
func (e Embedding) Clone() Embedding { return append(Embedding(nil), e...) }

// ImageKey returns a canonical key identifying the embedded subgraph:
// sorted (host) edge list of the pattern's image. Two embeddings with the
// same key denote the same subgraph of the host.
func (e Embedding) ImageKey(p *graph.Graph) string {
	return canon.ImageKey(p, canon.Mapping(e))
}

// Pattern is a frequent pattern: a connected labeled pattern graph plus all
// of its known embeddings in the host graph. Pattern size follows the
// paper: |P| is the number of edges.
type Pattern struct {
	// ID is a process-unique identifier assigned by the miner.
	ID int
	// G is the pattern graph.
	G *graph.Graph
	// Emb is the embedding list E[P]. All entries map to distinct
	// subgraphs of the host (distinct ImageKeys).
	Emb []Embedding
	// Origin is the pattern vertex the seed spider was headed at; growth
	// radius is measured from it. -1 when not seed-grown (e.g. merged
	// patterns re-rooted, baseline patterns).
	Origin graph.V
	// Merged records whether the pattern resulted from a CheckMerge (used
	// by Stage II pruning).
	Merged bool

	inv       uint64
	invOK     bool
	spiderSig uint64
	sigOK     bool
	sigRadius int
	canonCode string
	codeOK    bool
}

// New creates a pattern with the given graph and embeddings.
func New(g *graph.Graph, embs []Embedding) *Pattern {
	return &Pattern{G: g, Emb: embs, Origin: -1}
}

// Size returns the pattern size |P| = number of edges, per the paper.
func (p *Pattern) Size() int { return p.G.M() }

// NV returns the number of pattern vertices.
func (p *Pattern) NV() int { return p.G.N() }

// SupportCount returns the raw number of stored embeddings. Overlap-aware
// measures live in internal/support.
func (p *Pattern) SupportCount() int { return len(p.Emb) }

// Invariant returns the cached isomorphism-invariant hash of the pattern
// graph.
func (p *Pattern) Invariant() uint64 {
	if !p.invOK {
		p.inv = canon.Invariant(p.G)
		p.invOK = true
	}
	return p.inv
}

// InvalidateCaches drops cached hashes after the pattern graph is replaced.
func (p *Pattern) InvalidateCaches() {
	p.invOK = false
	p.sigOK = false
	p.codeOK = false
}

// CanonicalCodeWith returns the canonical code of the pattern graph,
// cached; a miss canonicalizes through the caller's Canonizer. Equal
// codes iff isomorphic pattern graphs, so repeated exact identity checks
// against a pattern pay for one canonicalization, then compare strings.
// The cache is unsynchronized: concurrent calls are only safe on distinct
// patterns.
func (p *Pattern) CanonicalCodeWith(cz *canon.Canonizer) string {
	if !p.codeOK {
		p.canonCode = cz.Code(p.G)
		p.codeOK = true
	}
	return p.canonCode
}

// String summarizes the pattern.
func (p *Pattern) String() string {
	return fmt.Sprintf("pattern{id=%d v=%d e=%d emb=%d}", p.ID, p.NV(), p.Size(), len(p.Emb))
}

// dedupeScratch pools the image-hash set DedupeEmbeddings probes with, so
// per-seed dedupe passes stop allocating a string per embedding (128-bit
// image hashes stand in for ImageKey strings — the accepted collision
// trade-off, see canon.ImageHash).
type dedupeScratch struct {
	seen map[[2]uint64]struct{}
}

var dedupePool = sync.Pool{
	New: func() any { return &dedupeScratch{seen: make(map[[2]uint64]struct{})} },
}

// DedupeEmbeddings removes embeddings that denote the same host subgraph,
// keeping first occurrences, and returns the number removed.
func (p *Pattern) DedupeEmbeddings() int {
	s := dedupePool.Get().(*dedupeScratch)
	clear(s.seen)
	kept := p.Emb[:0]
	removed := 0
	for _, e := range p.Emb {
		h := canon.ImageHash(p.G, canon.Mapping(e))
		if _, dup := s.seen[h]; dup {
			removed++
			continue
		}
		s.seen[h] = struct{}{}
		kept = append(kept, e)
	}
	p.Emb = kept
	dedupePool.Put(s)
	return removed
}

// Boundary returns the pattern vertices at exactly the given distance from
// Origin — the frontier B[P] that SpiderGrow extends. If Origin is -1 the
// boundary is every vertex (merged patterns grow from their whole rim).
// Vertices are returned sorted, matching the paper's lexicographic queue.
func (p *Pattern) Boundary(radius int) []graph.V {
	return p.AppendBoundary(new(graph.BFS), nil, radius)
}

// AppendBoundary is Boundary into caller-owned scratch: the boundary
// vertices (ascending) are appended to dst and the extended slice
// returned, and the BFS behind them runs in s. The growth loop reuses one
// buffer and one BFS per worker this way, so warm calls only allocate if
// dst must grow.
func (p *Pattern) AppendBoundary(s *graph.BFS, dst []graph.V, radius int) []graph.V {
	if p.Origin < 0 {
		for i := 0; i < p.NV(); i++ {
			dst = append(dst, graph.V(i))
		}
		return dst
	}
	return s.AppendAtDistance(p.G, dst, p.Origin, radius)
}

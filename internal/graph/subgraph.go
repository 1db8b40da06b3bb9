package graph

import "slices"

// Induced returns the subgraph of g induced by the given vertices, plus the
// mapping from new vertex ids to original ids. Duplicate vertices in the
// input are collapsed. New ids follow the sorted order of the originals so
// the operation is deterministic.
func (g *Graph) Induced(vertices []V) (*Graph, []V) {
	uniq := append([]V(nil), vertices...)
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)

	index := make(map[V]V, len(uniq))
	for i, v := range uniq {
		index[v] = V(i)
	}
	b := NewBuilder(len(uniq), len(uniq)*2)
	for _, v := range uniq {
		b.AddVertex(g.Label(v))
	}
	for _, v := range uniq {
		for _, w := range g.Neighbors(v) {
			if v < w {
				if j, ok := index[w]; ok {
					b.AddEdge(index[v], j)
				}
			}
		}
	}
	return b.Build(), uniq
}

// SubgraphOfEdges builds the subgraph of g containing exactly the given
// edges (in original vertex ids) and their endpoints. Returns the subgraph
// and the new→original vertex mapping.
func (g *Graph) SubgraphOfEdges(edges []Edge) (*Graph, []V) {
	verts := make([]V, 0, 2*len(edges))
	for _, e := range edges {
		verts = append(verts, e.U, e.W)
	}
	slices.Sort(verts)
	verts = slices.Compact(verts)
	b := NewBuilder(len(verts), len(edges))
	for _, v := range verts {
		b.AddVertex(g.Label(v))
	}
	for _, e := range edges {
		u, _ := slices.BinarySearch(verts, e.U)
		w, _ := slices.BinarySearch(verts, e.W)
		b.AddEdge(V(u), V(w))
	}
	return b.Build(), verts
}

// Neighborhood returns the subgraph induced by all vertices within distance
// r of v, plus the new→original mapping; the image of v is always new
// vertex index findable via the mapping.
func (g *Graph) Neighborhood(v V, r int) (*Graph, []V) {
	dist := g.BFSWithin(v, r)
	verts := make([]V, 0, len(dist))
	for u := range dist {
		verts = append(verts, u)
	}
	return g.Induced(verts)
}

// AppendMergedEdges appends the union of a and b to dst and returns the
// extended slice. Both inputs must be sorted by (U, W) and duplicate-free;
// one linear merge then yields the sorted duplicate-free union.
func AppendMergedEdges(dst, a, b []Edge) []Edge {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch c := cmpEdge(a[i], b[j]); {
		case c < 0:
			dst = append(dst, a[i])
			i++
		case c > 0:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// SubgraphScratch rebuilds edge subgraphs of a host in place: the
// endpoint table is host-sized and epoch-stamped, and the subgraph's
// arrays are reused, so a warm rebuild allocates nothing. Hot loops (the
// miner's merge check builds one union subgraph per candidate embedding
// pair) hold one per worker. The zero value is ready to use; a
// SubgraphScratch is not safe for concurrent use.
type SubgraphScratch struct {
	g     Graph
	stamp []uint32 // per host vertex: the epoch that last saw it
	id    []V      // per host vertex: its subgraph id, valid when stamped this epoch
	epoch uint32
	verts []V    // subgraph id -> host vertex
	edges []Edge // edges renumbered into subgraph ids
}

// OfSortedEdges rebuilds the scratch graph as the subgraph of host made
// of exactly the given edges and their endpoints, and returns it with the
// new→original vertex map, both equal to host.SubgraphOfEdges(edges).
// The edges must be sorted by (U, W), duplicate-free and have U < W, as
// AppendMergedEdges leaves them. Both results alias the scratch and are
// overwritten by the next call: Clone the graph and copy the map to keep
// them.
func (s *SubgraphScratch) OfSortedEdges(host *Graph, edges []Edge) (*Graph, []V) {
	if len(s.stamp) < host.N() {
		s.stamp = make([]uint32, host.N())
		s.id = make([]V, host.N())
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: a stale stamp could equal the new epoch
		clear(s.stamp)
		s.epoch = 1
	}
	verts := s.verts[:0]
	for _, e := range edges {
		if s.stamp[e.U] != s.epoch {
			s.stamp[e.U] = s.epoch
			verts = append(verts, e.U)
		}
		if s.stamp[e.W] != s.epoch {
			s.stamp[e.W] = s.epoch
			verts = append(verts, e.W)
		}
	}
	slices.Sort(verts)
	for i, v := range verts {
		s.id[v] = V(i)
	}
	// Subgraph ids follow host order, so renumbering keeps the list
	// sorted with U < W and it can fill the CSR directly.
	rel := s.edges[:0]
	for _, e := range edges {
		rel = append(rel, Edge{s.id[e.U], s.id[e.W]})
	}
	g := &s.g
	g.labels = resize(g.labels, len(verts))
	for i, v := range verts {
		g.labels[i] = host.labels[v]
	}
	g.fillCSR(rel)
	s.verts, s.edges = verts, rel
	return g, verts
}

func cmpEdge(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.W) - int(b.W)
}

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

// AppendMergedVerts appends the union of a and b to dst and returns the
// extended slice. Both inputs must be ascending and duplicate-free; one
// linear merge then yields the ascending duplicate-free union.
func AppendMergedVerts(dst, a, b []V) []V {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
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

// SubgraphScratch rebuilds edge subgraphs of a host in place: a
// host-sized table renumbers endpoints in O(1), and the subgraph's arrays
// are reused, so a warm rebuild allocates nothing. Hot loops (the miner's
// merge check builds one union subgraph per candidate embedding pair)
// hold one per worker. The zero value is ready to use; a SubgraphScratch
// is not safe for concurrent use.
type SubgraphScratch struct {
	g     Graph
	id    []V    // per host vertex: its subgraph id, valid for the current call's verts
	edges []Edge // edges renumbered into subgraph ids
}

// OfSortedEdges rebuilds the scratch graph as the subgraph of host made
// of exactly the given edges and their endpoints, and returns it: the
// graph host.SubgraphOfEdges(edges) returns, whose vertex map is verts.
// The edges must be sorted by (U, W), duplicate-free and have U < W, as
// AppendMergedEdges leaves them; verts must be exactly their endpoints,
// ascending, as AppendMergedVerts leaves two such lists. The graph
// aliases the scratch and is overwritten by the next call: Clone it to
// keep it.
func (s *SubgraphScratch) OfSortedEdges(host *Graph, verts []V, edges []Edge) *Graph {
	if len(s.id) < host.N() {
		s.id = make([]V, host.N())
	}
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
	s.edges = rel
	return g
}

func cmpEdge(a, b Edge) int {
	if a.U != b.U {
		return int(a.U) - int(b.U)
	}
	return int(a.W) - int(b.W)
}

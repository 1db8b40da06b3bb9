// Package graph provides the labeled undirected graph substrate used by
// SpiderMine and all baseline miners. Graphs are immutable once built;
// construct them with a Builder. Vertices are dense int32 identifiers and
// carry an integer Label.
//
// Adjacency is stored in CSR (compressed sparse row) form: one flat,
// per-vertex-sorted neighbor array indexed by an offsets table. This keeps
// the whole structure in three contiguous allocations, makes neighbor
// iteration cache-friendly, and keeps edge membership tests O(log d).
// Build additionally precomputes a label index (vertices grouped by label,
// see labelindex.go) and a per-vertex neighbor-label frequency sketch used
// by the subgraph matcher to prune candidates.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// V is a vertex identifier. Vertices of a graph with n vertices are
// numbered 0..n-1.
type V = int32

// Label is a vertex label. Labeled graph isomorphism (Definition 1 of the
// paper) requires mapped vertices to share labels.
type Label int32

// Edge is an undirected edge between two vertices. The zero vertex is a
// valid endpoint; callers should keep U <= W when using Edge as a map key
// (see NormEdge).
type Edge struct {
	U, W V
}

// NormEdge returns the edge with endpoints ordered so that U <= W, making
// it usable as a canonical map key for undirected edges.
func NormEdge(u, w V) Edge {
	if u > w {
		u, w = w, u
	}
	return Edge{u, w}
}

// Graph is an immutable vertex-labeled undirected simple graph in CSR
// layout.
//
// The zero value is the empty graph. Use a Builder to construct non-empty
// graphs.
type Graph struct {
	labels []Label
	offs   []int32 // len N()+1; neighbor range of v is nbrs[offs[v]:offs[v+1]]
	nbrs   []V     // flat neighbor array, sorted within each vertex's range
	m      int

	// Label index, built lazily on first use (see labelindex.go): small
	// pattern and union-subgraph graphs are constructed constantly during
	// growth and most never serve as match hosts, so Build skips the
	// grouping work. Sketches are built eagerly — the matcher consults
	// them on both the pattern and the host side.
	labelOnce  sync.Once
	numLabels  int
	labelVerts []V           // vertices grouped by label, each group sorted
	byLabel    map[Label][]V // label -> subslice of labelVerts
	sketches   []uint64      // per-vertex neighbor-label frequency sketch
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.labels) }

// M returns the number of (undirected) edges.
func (g *Graph) M() int { return g.m }

// Label returns the label of vertex v.
func (g *Graph) Label(v V) Label { return g.labels[v] }

// Labels returns the label slice indexed by vertex. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Labels() []Label { return g.labels }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v V) int { return int(g.offs[v+1] - g.offs[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice is
// shared with the graph and must not be modified.
func (g *Graph) Neighbors(v V) []V { return g.nbrs[g.offs[v]:g.offs[v+1]] }

// HasEdge reports whether the undirected edge {u, w} exists.
func (g *Graph) HasEdge(u, w V) bool {
	n := V(len(g.labels))
	if u >= n || w >= n || u < 0 || w < 0 {
		return false
	}
	lo, hi := g.offs[u], g.offs[u+1]
	if d := g.offs[w+1] - g.offs[w]; d < hi-lo {
		lo, hi = g.offs[w], g.offs[w+1]
		u, w = w, u
	}
	a := g.nbrs[lo:hi]
	// Hand-rolled binary search: this is the innermost loop of the matcher.
	i, j := 0, len(a)
	for i < j {
		h := int(uint(i+j) >> 1)
		if a[h] < w {
			i = h + 1
		} else {
			j = h
		}
	}
	return i < len(a) && a[i] == w
}

// Edges returns all edges with U < W, sorted lexicographically.
// Each call allocates a fresh m-entry slice; hot or large-graph callers
// should use AppendEdges with a reused buffer (or iterate Neighbors
// directly) instead of doubling the edge memory per call.
func (g *Graph) Edges() []Edge {
	return g.AppendEdges(make([]Edge, 0, g.m))
}

// AppendEdges appends all edges with U < W, sorted lexicographically, to
// dst and returns the extended slice. It is the allocation-controlled
// variant of Edges: pass a buffer with m spare capacity and no allocation
// happens at all.
func (g *Graph) AppendEdges(dst []Edge) []Edge {
	for u := 0; u < len(g.labels); u++ {
		for _, w := range g.nbrs[g.offs[u]:g.offs[u+1]] {
			if V(u) < w {
				dst = append(dst, Edge{V(u), w})
			}
		}
	}
	return dst
}

// MaxDegree returns the maximum vertex degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < len(g.labels); v++ {
		if d := g.Degree(V(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree returns the average vertex degree (2M/N), or 0 for the empty
// graph.
func (g *Graph) AvgDegree() float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.N())
}

// NumLabels returns the number of distinct labels present in the graph.
// The count is memoized with the label index.
func (g *Graph) NumLabels() int {
	g.ensureLabelIndex()
	return g.numLabels
}

// String returns a short human-readable summary such as
// "graph{n=400 m=1398 labels=70}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d labels=%d}", g.N(), g.M(), g.NumLabels())
}

// Clone returns a deep copy of the graph. The clone's label index is
// rebuilt lazily on first use.
func (g *Graph) Clone() *Graph {
	return &Graph{
		labels:   append([]Label(nil), g.labels...),
		offs:     append([]int32(nil), g.offs...),
		nbrs:     append([]V(nil), g.nbrs...),
		m:        g.m,
		sketches: append([]uint64(nil), g.sketches...),
	}
}

// Builder constructs graphs incrementally. It tolerates duplicate and
// self-loop edge insertions (both are dropped at Build time), which keeps
// random generators simple.
type Builder struct {
	labels []Label
	edges  []Edge
	// seen is a lazily-built edge set backing HasEdge; nil until the first
	// HasEdge call.
	seen map[Edge]struct{}
}

// NewBuilder returns a Builder with capacity hints for n vertices and m
// edges.
func NewBuilder(n, m int) *Builder {
	return &Builder{
		labels: make([]Label, 0, n),
		edges:  make([]Edge, 0, m),
	}
}

// Reset empties the builder for reuse, keeping its backing arrays (grown
// to at least n vertices / m edges of capacity). Hot loops that build many
// short-lived pattern graphs hold one Builder and Reset it per graph
// instead of allocating a new one; note Build still allocates the Graph it
// returns — only the builder-side churn is reused.
func (b *Builder) Reset(n, m int) {
	if cap(b.labels) < n {
		b.labels = make([]Label, 0, n)
	}
	if cap(b.edges) < m {
		b.edges = make([]Edge, 0, m)
	}
	b.labels = b.labels[:0]
	b.edges = b.edges[:0]
	b.seen = nil
}

// AddVertex appends a vertex with the given label and returns its id.
func (b *Builder) AddVertex(l Label) V {
	b.labels = append(b.labels, l)
	return V(len(b.labels) - 1)
}

// AddVertices appends k vertices all carrying label l and returns the id of
// the first.
func (b *Builder) AddVertices(k int, l Label) V {
	first := V(len(b.labels))
	for i := 0; i < k; i++ {
		b.labels = append(b.labels, l)
	}
	return first
}

// N returns the number of vertices added so far.
func (b *Builder) N() int { return len(b.labels) }

// SetLabel overrides the label of an existing vertex.
func (b *Builder) SetLabel(v V, l Label) { b.labels[v] = l }

// AddEdge records the undirected edge {u, w}. Self-loops and duplicates are
// silently dropped when Build runs. AddEdge panics if either endpoint has
// not been added.
func (b *Builder) AddEdge(u, w V) {
	if int(u) >= len(b.labels) || int(w) >= len(b.labels) || u < 0 || w < 0 {
		panic(fmt.Sprintf("graph: AddEdge(%d, %d) with only %d vertices", u, w, len(b.labels)))
	}
	e := NormEdge(u, w)
	b.edges = append(b.edges, e)
	if b.seen != nil {
		b.seen[e] = struct{}{}
	}
}

// HasEdge reports whether the edge has been recorded already. The first
// call builds a hash set over the recorded edges; subsequent calls (and
// AddEdge) maintain it, so the amortized cost is O(1) per query.
func (b *Builder) HasEdge(u, w V) bool {
	if b.seen == nil {
		b.seen = make(map[Edge]struct{}, len(b.edges))
		for _, e := range b.edges {
			b.seen[e] = struct{}{}
		}
	}
	_, ok := b.seen[NormEdge(u, w)]
	return ok
}

// Build finalizes the graph: the edge list is sorted and deduplicated in a
// single pass (self-loops dropped), adjacency is laid out in CSR form, and
// the neighbor-label sketches are precomputed.
func (b *Builder) Build() *Graph {
	n := len(b.labels)
	SortEdges(b.edges)
	// Single dedupe pass, compacting in place (the builder is typically
	// discarded after Build, and AddEdge order is already destroyed by the
	// sort).
	dedup := b.edges[:0]
	var prev Edge
	first := true
	for _, e := range b.edges {
		if e.U == e.W {
			continue
		}
		if !first && e == prev {
			continue
		}
		first = false
		prev = e
		dedup = append(dedup, e)
	}
	b.edges = dedup
	b.seen = nil // edge list mutated; invalidate the HasEdge set

	labels := make([]Label, n)
	copy(labels, b.labels)
	g := &Graph{labels: labels}
	g.fillCSR(dedup)
	return g
}

// fillCSR lays out g's adjacency over its len(g.labels) vertices from
// edges, which must be sorted by (U, W), duplicate-free and have U < W,
// computes the neighbor-label sketches and drops any label index built
// for g's previous contents. Arrays g already holds are reused when large
// enough, so a scratch graph rebuilt in place (SubgraphScratch) stops
// allocating once warm. It is the one CSR fill behind Builder.Build and
// SubgraphScratch.
func (g *Graph) fillCSR(edges []Edge) {
	n := len(g.labels)
	g.m = len(edges)
	// CSR: count degrees into offs[v+1] and prefix-sum, so offs[v] is v's
	// start; then fill, using offs[v] itself as v's cursor, and shift the
	// offsets back by one slot. Filling the lower endpoints first and the
	// upper endpoints second leaves every vertex's range sorted, because
	// edges is sorted by (U, W) and U < W: pass 1 appends neighbors smaller
	// than v in ascending U order, pass 2 appends neighbors greater than v
	// in ascending W order.
	offs := resize(g.offs, n+1)
	clear(offs)
	for _, e := range edges {
		offs[e.U+1]++
		offs[e.W+1]++
	}
	for v := 0; v < n; v++ {
		offs[v+1] += offs[v]
	}
	nbrs := resize(g.nbrs, 2*len(edges))
	for _, e := range edges {
		nbrs[offs[e.W]] = e.U
		offs[e.W]++
	}
	for _, e := range edges {
		nbrs[offs[e.U]] = e.W
		offs[e.U]++
	}
	// offs[v] now holds v's end, which is v+1's start.
	copy(offs[1:], offs[:n])
	offs[0] = 0
	g.offs, g.nbrs = offs, nbrs

	g.sketches = resize(g.sketches, n)
	for v := 0; v < n; v++ {
		var sk uint64
		for _, w := range nbrs[offs[v]:offs[v+1]] {
			sk = sketchAdd(sk, g.labels[w])
		}
		g.sketches[v] = sk
	}

	g.labelOnce = sync.Once{}
	g.numLabels, g.labelVerts, g.byLabel = 0, nil, nil
}

// resize returns s resliced to length n when its capacity allows, else a
// fresh length-n slice. A nil s always gets a fresh slice, so a newly
// built graph never shares an array with anything.
func resize[T any](s []T, n int) []T {
	if s == nil || cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SortEdges sorts an edge list by (U, W): insertion sort below 16 edges
// (the common pattern-size case), pdqsort above.
func SortEdges(es []Edge) {
	if len(es) < 16 {
		for i := 1; i < len(es); i++ {
			e := es[i]
			j := i
			for j > 0 && cmpEdge(e, es[j-1]) < 0 {
				es[j] = es[j-1]
				j--
			}
			es[j] = e
		}
		return
	}
	slices.SortFunc(es, cmpEdge)
}

// FromEdges builds a graph directly from a label slice and an edge list.
// It is a convenience wrapper around Builder used heavily in tests.
func FromEdges(labels []Label, edges []Edge) *Graph {
	b := NewBuilder(len(labels), len(edges))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for _, e := range edges {
		b.AddEdge(e.U, e.W)
	}
	return b.Build()
}

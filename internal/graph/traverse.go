package graph

import (
	"slices"
	"sync"
)

// BFS is reusable breadth-first-search scratch: the distance and queue
// buffers, plus DiameterAtMost's eccentricity bounds. EccentricityRaising,
// DiameterAtMost and the boundary search (AppendAtDistance) run on every
// boundary vertex of every growth step and on every merge union, so hot
// loops hold one BFS per worker (the miner's grow and merge scratch) and
// never allocate for them. Graph.Eccentricity and Graph.DiameterAtMost
// borrow one from a sync.Pool. The zero value is ready to use; a BFS is
// not safe for concurrent use.
type BFS struct {
	dist  []int32
	queue []V
	ub    []int32 // DiameterAtMost's per-vertex eccentricity upper bounds
}

var bfsPool = sync.Pool{New: func() any { return new(BFS) }}

func (s *BFS) reset(n int) {
	if cap(s.dist) < n {
		// Grow the way append does, so scratch that meets ever larger
		// graphs (a worker's, across one mine) reallocates O(log n)
		// times, not once per new size.
		s.dist = slices.Grow(s.dist[:0], n)
		s.queue = slices.Grow(s.queue[:0], n)
	}
	s.dist = s.dist[:n]
	for i := range s.dist {
		s.dist[i] = -1
	}
	s.queue = s.queue[:0]
}

// bfs runs a BFS from src into the scratch's dist array (-1 = unreached)
// and returns the maximum distance reached.
func (g *Graph) bfs(s *BFS, src V) int32 {
	s.reset(g.N())
	s.dist[src] = 0
	s.queue = append(s.queue, src)
	var ecc int32
	for head := 0; head < len(s.queue); head++ {
		v := s.queue[head]
		dv := s.dist[v]
		for _, w := range g.nbrs[g.offs[v]:g.offs[v+1]] {
			if s.dist[w] < 0 {
				s.dist[w] = dv + 1
				s.queue = append(s.queue, w)
			}
		}
		ecc = dv
	}
	return ecc
}

// BFSFrom runs a breadth-first search from src and returns the distance of
// every vertex from src; unreachable vertices get -1.
func (g *Graph) BFSFrom(src V) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	if int(src) >= g.N() || src < 0 {
		return dist
	}
	s := bfsPool.Get().(*BFS)
	g.bfs(s, src)
	for i, d := range s.dist {
		dist[i] = int(d)
	}
	bfsPool.Put(s)
	return dist
}

// AppendAtDistance appends to dst the vertices of g at exactly distance d
// from src, in ascending vertex order, and returns the extended slice.
// Warm calls allocate only if dst must grow — this is the growth loop's
// boundary computation (pattern.AppendBoundary).
func (s *BFS) AppendAtDistance(g *Graph, dst []V, src V, d int) []V {
	if int(src) >= g.N() || src < 0 {
		return dst
	}
	g.bfs(s, src)
	for v, dv := range s.dist {
		if int(dv) == d {
			dst = append(dst, V(v))
		}
	}
	return dst
}

// BFSWithin returns the set of vertices within distance r of src
// (including src itself) along with their distances. It stops expanding at
// depth r, so cost is proportional to the r-neighborhood, not the graph.
func (g *Graph) BFSWithin(src V, r int) map[V]int {
	dist := map[V]int{src: 0}
	frontier := []V{src}
	for depth := 0; depth < r && len(frontier) > 0; depth++ {
		var next []V
		for _, v := range frontier {
			for _, w := range g.Neighbors(v) {
				if _, ok := dist[w]; !ok {
					dist[w] = depth + 1
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return dist
}

// Eccentricity returns the maximum shortest-path distance from v to any
// vertex reachable from v. Returns 0 for isolated vertices. The BFS state
// is pooled; hot loops hold their own BFS and call
// (*BFS).EccentricityRaising.
func (g *Graph) Eccentricity(v V) int {
	s := bfsPool.Get().(*BFS)
	ecc := s.EccentricityRaising(g, v, nil)
	bfsPool.Put(s)
	return ecc
}

// EccentricityRaising is the scratch-backed form of Graph.Eccentricity,
// which also raises caller-held lower bounds on the other vertices'
// eccentricities (lb may be nil). For every vertex w < len(lb) reached
// from v, lb[w] becomes at least dist(v, w) and ecc(v) − dist(v, w):
// ecc(w) is at least its distance to v, and a vertex at distance ecc(v)
// from v is at least ecc(v) − dist(v, w) from w. DiameterAtMost carries
// upper bounds the same way. Bounds hold only while the graph's distances
// do: the caller decides how long that is (growth keeps them for one pass,
// which only appends leaves, so distances between existing vertices never
// shrink and eccentricities only grow).
func (s *BFS) EccentricityRaising(g *Graph, v V, lb []int32) int {
	if int(v) >= g.N() || v < 0 {
		return 0
	}
	ecc := g.bfs(s, v)
	for _, w := range s.queue {
		if int(w) < len(lb) {
			dw := s.dist[w]
			lb[w] = max(lb[w], dw, ecc-dw)
		}
	}
	return int(ecc)
}

// Diameter returns the diameter of the graph: the maximum eccentricity over
// all vertices. Disconnected graphs report the maximum diameter over
// components (distances across components are ignored). O(N·(N+M)); meant
// for patterns and test graphs, not massive inputs — use
// EffectiveDiameter for those.
func (g *Graph) Diameter() int {
	s := bfsPool.Get().(*BFS)
	var diam int32
	for v := 0; v < g.N(); v++ {
		if e := g.bfs(s, V(v)); e > diam {
			diam = e
		}
	}
	bfsPool.Put(s)
	return int(diam)
}

// RadiusFrom reports whether every vertex of the graph is within distance r
// of v, i.e. whether the graph is "r-bounded from v" in the paper's sense.
// Disconnected graphs are never r-bounded.
func (g *Graph) RadiusFrom(v V, r int) bool {
	if g.N() == 0 {
		return true
	}
	if int(v) >= g.N() || v < 0 {
		return false
	}
	s := bfsPool.Get().(*BFS)
	ecc := g.bfs(s, v)
	reached := len(s.queue)
	bfsPool.Put(s)
	return reached == g.N() && int(ecc) <= r
}

// EffectiveDiameter estimates the q-quantile (e.g. 0.9 for the "90th
// percentile distance" the paper cites for DBLP) of pairwise distances by
// sampling BFS from up to sample source vertices, visiting sources in a
// fixed stride so the estimate is deterministic.
func (g *Graph) EffectiveDiameter(q float64, sample int) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	if sample <= 0 || sample > n {
		sample = n
	}
	stride := n / sample
	if stride == 0 {
		stride = 1
	}
	var dists []int
	for v := 0; v < n; v += stride {
		for _, d := range g.BFSFrom(V(v)) {
			if d > 0 {
				dists = append(dists, d)
			}
		}
	}
	if len(dists) == 0 {
		return 0
	}
	// Counting sort: distances are small integers.
	maxD := 0
	for _, d := range dists {
		if d > maxD {
			maxD = d
		}
	}
	counts := make([]int, maxD+1)
	for _, d := range dists {
		counts[d]++
	}
	target := int(q * float64(len(dists)))
	if target >= len(dists) {
		target = len(dists) - 1
	}
	cum := 0
	for d, c := range counts {
		cum += c
		if cum > target {
			return d
		}
	}
	return maxD
}

// ConnectedComponents returns a component id per vertex and the number of
// components. Component ids are assigned in order of lowest contained
// vertex.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.N())
	for i := range comp {
		comp[i] = -1
	}
	for v := 0; v < g.N(); v++ {
		if comp[v] >= 0 {
			continue
		}
		comp[v] = count
		queue := []V{V(v)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, w := range g.Neighbors(u) {
				if comp[w] < 0 {
					comp[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return comp, count
}

// IsConnected reports whether the graph has exactly one connected component
// (the empty graph counts as connected).
func (g *Graph) IsConnected() bool {
	n := g.N()
	if n == 0 {
		return true
	}
	s := bfsPool.Get().(*BFS)
	g.bfs(s, 0)
	reached := len(s.queue)
	bfsPool.Put(s)
	return reached == n
}

// DiameterAtMost reports whether the graph is connected and
// Diameter() <= d. A disconnected graph has infinite diameter and is never
// accepted; the empty graph is. One BFS, from vertex 0, rejects a
// disconnected graph and accepts a connected one whose eccentricity e
// there satisfies 2e <= d (all pairwise distances are at most 2e by the
// triangle inequality). Past that, only vertices whose eccentricity is
// not yet bounded by d get a BFS of their own, and the first one
// exceeding d rejects: every BFS from u bounds each ecc(v) by
// dist(u, v) + ecc(u). Merge and growth checks only ever need the
// threshold comparison, never the exact diameter. The BFS state is
// pooled; hot loops hold their own BFS and call (*BFS).DiameterAtMost.
func (g *Graph) DiameterAtMost(d int) bool {
	s := bfsPool.Get().(*BFS)
	ok := s.DiameterAtMost(g, d)
	bfsPool.Put(s)
	return ok
}

// DiameterAtMost is the scratch-backed form of Graph.DiameterAtMost.
func (s *BFS) DiameterAtMost(g *Graph, d int) bool {
	n := g.N()
	if n == 0 {
		return true
	}
	ecc := g.bfs(s, 0)
	if len(s.queue) != n || int(ecc) > d {
		return false
	}
	if 2*int(ecc) <= d {
		return true
	}
	ub := s.ub[:0]
	for _, dv := range s.dist {
		ub = append(ub, dv+ecc)
	}
	s.ub = ub
	for v := 1; v < n; v++ {
		if int(ub[v]) <= d {
			continue
		}
		e := g.bfs(s, V(v))
		if int(e) > d {
			return false
		}
		for w, dw := range s.dist {
			ub[w] = min(ub[w], dw+e)
		}
	}
	return true
}

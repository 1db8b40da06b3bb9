package graph

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func buildPath(labels ...Label) *Graph {
	b := NewBuilder(len(labels), len(labels))
	for _, l := range labels {
		b.AddVertex(l)
	}
	for i := 0; i+1 < len(labels); i++ {
		b.AddEdge(V(i), V(i+1))
	}
	return b.Build()
}

func buildCycle(n int, l Label) *Graph {
	b := NewBuilder(n, n)
	for i := 0; i < n; i++ {
		b.AddVertex(l)
	}
	for i := 0; i < n; i++ {
		b.AddEdge(V(i), V((i+1)%n))
	}
	return b.Build()
}

func TestEmptyGraph(t *testing.T) {
	var g Graph
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("zero graph: n=%d m=%d", g.N(), g.M())
	}
	if g.HasEdge(0, 1) {
		t.Fatal("empty graph claims an edge")
	}
	if !g.IsConnected() {
		t.Fatal("empty graph should count as connected")
	}
}

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(3, 3)
	v0 := b.AddVertex(10)
	v1 := b.AddVertex(20)
	v2 := b.AddVertex(10)
	b.AddEdge(v0, v1)
	b.AddEdge(v1, v2)
	g := b.Build()
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("got n=%d m=%d, want 3, 2", g.N(), g.M())
	}
	if g.Label(v0) != 10 || g.Label(v1) != 20 || g.Label(v2) != 10 {
		t.Fatal("labels wrong")
	}
	if !g.HasEdge(v0, v1) || !g.HasEdge(v1, v0) {
		t.Fatal("edge 0-1 missing or asymmetric")
	}
	if g.HasEdge(v0, v2) {
		t.Fatal("phantom edge 0-2")
	}
	if g.Degree(v1) != 2 || g.Degree(v0) != 1 {
		t.Fatal("degrees wrong")
	}
}

func TestBuilderDropsDuplicatesAndSelfLoops(t *testing.T) {
	b := NewBuilder(2, 4)
	b.AddVertex(1)
	b.AddVertex(1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(0, 0) // self loop
	g := b.Build()
	if g.M() != 1 {
		t.Fatalf("got m=%d, want 1", g.M())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees %d, %d; want 1, 1", g.Degree(0), g.Degree(1))
	}
}

func TestAddEdgePanicsOnUnknownVertex(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	b := NewBuilder(1, 1)
	b.AddVertex(0)
	b.AddEdge(0, 5)
}

func TestEdgesSortedAndComplete(t *testing.T) {
	g := buildCycle(4, 0)
	es := g.Edges()
	if len(es) != 4 {
		t.Fatalf("got %d edges, want 4", len(es))
	}
	for _, e := range es {
		if e.U >= e.W {
			t.Fatalf("edge %v not normalized", e)
		}
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].U > es[i].U || (es[i-1].U == es[i].U && es[i-1].W >= es[i].W) {
			t.Fatal("edges not sorted")
		}
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(3, 1) != (Edge{1, 3}) {
		t.Fatal("NormEdge did not swap")
	}
	if NormEdge(1, 3) != (Edge{1, 3}) {
		t.Fatal("NormEdge changed ordered pair")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := buildPath(1, 2, 3)
	c := g.Clone()
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("clone differs")
	}
	c.labels[0] = 99
	if g.Label(0) == 99 {
		t.Fatal("clone shares label storage")
	}
}

func TestDegreeStats(t *testing.T) {
	g := buildPath(0, 0, 0, 0) // path of 4: degrees 1,2,2,1
	if g.MaxDegree() != 2 {
		t.Fatalf("max degree %d, want 2", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 1.5 {
		t.Fatalf("avg degree %f, want 1.5", got)
	}
	if g.NumLabels() != 1 {
		t.Fatalf("numlabels %d, want 1", g.NumLabels())
	}
}

// bfsDistances reads every vertex's distance from src off
// BFS.AppendAtDistance, one distance at a time; unreachable vertices get
// -1.
func bfsDistances(g *Graph, src V) []int {
	dist := make([]int, g.N())
	for i := range dist {
		dist[i] = -1
	}
	var s BFS
	var at []V
	for d := 0; d < g.N(); d++ {
		at = s.AppendAtDistance(g, at[:0], src, d)
		for _, v := range at {
			dist[v] = d
		}
	}
	return dist
}

func TestBFSAndDistances(t *testing.T) {
	g := buildPath(0, 0, 0, 0, 0)
	d := bfsDistances(g, 0)
	for i, want := range []int{0, 1, 2, 3, 4} {
		if d[i] != want {
			t.Fatalf("dist[%d]=%d, want %d", i, d[i], want)
		}
	}
	within := g.BFSWithin(2, 1)
	if len(within) != 3 {
		t.Fatalf("BFSWithin(2,1) = %v, want 3 vertices", within)
	}
	if within[2] != 0 || within[1] != 1 || within[3] != 1 {
		t.Fatalf("BFSWithin distances wrong: %v", within)
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(3, 1)
	b.AddVertex(0)
	b.AddVertex(0)
	b.AddVertex(0)
	b.AddEdge(0, 1)
	g := b.Build()
	d := bfsDistances(g, 0)
	if d[2] != -1 {
		t.Fatalf("unreachable vertex distance %d, want -1", d[2])
	}
	if g.IsConnected() {
		t.Fatal("disconnected graph reported connected")
	}
}

func TestDiameterAndEccentricity(t *testing.T) {
	p := buildPath(0, 0, 0, 0, 0)
	if p.Diameter() != 4 {
		t.Fatalf("path diameter %d, want 4", p.Diameter())
	}
	if p.Eccentricity(2) != 2 {
		t.Fatalf("center ecc %d, want 2", p.Eccentricity(2))
	}
	c := buildCycle(6, 0)
	if c.Diameter() != 3 {
		t.Fatalf("C6 diameter %d, want 3", c.Diameter())
	}
}

func TestInduced(t *testing.T) {
	g := buildCycle(5, 7)
	sub, orig := g.Induced([]V{0, 1, 2})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("induced: n=%d m=%d, want 3, 2", sub.N(), sub.M())
	}
	for i, v := range orig {
		if sub.Label(V(i)) != g.Label(v) {
			t.Fatal("induced labels wrong")
		}
	}
	// duplicates collapse
	sub2, _ := g.Induced([]V{1, 1, 2})
	if sub2.N() != 2 {
		t.Fatalf("duplicate vertices not collapsed: n=%d", sub2.N())
	}
}

func TestSubgraphOfEdges(t *testing.T) {
	g := buildCycle(5, 1)
	sub, orig := g.SubgraphOfEdges([]Edge{{0, 1}, {1, 2}})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("subgraph: n=%d m=%d", sub.N(), sub.M())
	}
	if len(orig) != 3 {
		t.Fatalf("mapping length %d", len(orig))
	}
}

func TestNeighborhood(t *testing.T) {
	g := buildPath(0, 1, 2, 3, 4)
	nb, orig := g.Neighborhood(2, 1)
	if nb.N() != 3 {
		t.Fatalf("1-neighborhood of path center: %d vertices, want 3", nb.N())
	}
	found := false
	for _, v := range orig {
		if v == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("center missing from own neighborhood")
	}
}

func TestUnionEdges(t *testing.T) {
	a := []Edge{{0, 1}, {1, 2}}
	b := []Edge{{1, 2}, {3, 4}}
	u := AppendMergedEdges(nil, a, b)
	if want := []Edge{{0, 1}, {1, 2}, {3, 4}}; !slices.Equal(u, want) {
		t.Fatalf("union %v, want %v (the shared edge must collapse)", u, want)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges([]Label{5, 6}, []Edge{{0, 1}})
	if g.N() != 2 || g.M() != 1 || g.Label(0) != 5 {
		t.Fatal("FromEdges wrong")
	}
}

// Property: Build is idempotent w.r.t. edge insertion order and
// duplication.
func TestQuickBuildOrderInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		var edges []Edge
		for i := 0; i < n*2; i++ {
			edges = append(edges, NormEdge(V(rng.Intn(n)), V(rng.Intn(n))))
		}
		labels := make([]Label, n)
		for i := range labels {
			labels[i] = Label(rng.Intn(4))
		}
		g1 := FromEdges(labels, edges)
		// shuffled + duplicated edges
		edges2 := append(append([]Edge(nil), edges...), edges...)
		rng.Shuffle(len(edges2), func(i, j int) { edges2[i], edges2[j] = edges2[j], edges2[i] })
		g2 := FromEdges(labels, edges2)
		if g1.N() != g2.N() || g1.M() != g2.M() {
			return false
		}
		for v := 0; v < g1.N(); v++ {
			if g1.Degree(V(v)) != g2.Degree(V(v)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: degree sum equals 2M.
func TestQuickHandshake(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		b := NewBuilder(n, n)
		for i := 0; i < n; i++ {
			b.AddVertex(Label(rng.Intn(3)))
		}
		for i := 0; i < n; i++ {
			b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
		}
		g := b.Build()
		sum := 0
		for v := 0; v < g.N(); v++ {
			sum += g.Degree(V(v))
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: BFS distances satisfy the triangle property along edges.
func TestQuickBFSEdgeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(25)
		b := NewBuilder(n, 2*n)
		for i := 0; i < n; i++ {
			b.AddVertex(0)
		}
		for i := 0; i < 2*n; i++ {
			b.AddEdge(V(rng.Intn(n)), V(rng.Intn(n)))
		}
		g := b.Build()
		d := bfsDistances(g, 0)
		for _, e := range g.Edges() {
			du, dw := d[e.U], d[e.W]
			if du >= 0 && dw >= 0 {
				if du-dw > 1 || dw-du > 1 {
					return false
				}
			}
			if (du < 0) != (dw < 0) {
				return false // adjacent vertices must share reachability
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

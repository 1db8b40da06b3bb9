package pattern

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/canon"
	"repro/internal/graph"
)

func path(labels ...graph.Label) *graph.Graph {
	var edges []graph.Edge
	for i := 0; i+1 < len(labels); i++ {
		edges = append(edges, graph.Edge{U: graph.V(i), W: graph.V(i + 1)})
	}
	return graph.FromEdges(labels, edges)
}

func star(head graph.Label, leaves ...graph.Label) *graph.Graph {
	labels := append([]graph.Label{head}, leaves...)
	var edges []graph.Edge
	for i := range leaves {
		edges = append(edges, graph.Edge{U: 0, W: graph.V(i + 1)})
	}
	return graph.FromEdges(labels, edges)
}

func TestPatternBasics(t *testing.T) {
	p := New(path(1, 2, 3), []Embedding{{10, 11, 12}})
	if p.Size() != 2 || p.NV() != 3 || p.SupportCount() != 1 {
		t.Fatalf("basics wrong: %v", p)
	}
}

func TestDedupeEmbeddings(t *testing.T) {
	pg := path(0, 0)
	p := New(pg, []Embedding{{5, 6}, {6, 5}, {7, 8}})
	removed := p.DedupeEmbeddings()
	if removed != 1 || len(p.Emb) != 2 {
		t.Fatalf("dedupe: removed=%d len=%d, want 1, 2 (5-6 and 6-5 are the same subgraph)", removed, len(p.Emb))
	}
}

func TestBoundary(t *testing.T) {
	p := New(path(0, 0, 0, 0, 0), nil)
	p.Origin = 2 // center of P5
	b0 := p.Boundary(0)
	if len(b0) != 1 || b0[0] != 2 {
		t.Fatalf("radius-0 boundary: %v", b0)
	}
	b1 := p.Boundary(1)
	if len(b1) != 2 {
		t.Fatalf("radius-1 boundary: %v", b1)
	}
	b2 := p.Boundary(2)
	if len(b2) != 2 || b2[0] != 0 || b2[1] != 4 {
		t.Fatalf("radius-2 boundary: %v", b2)
	}
}

func TestBoundaryNoOrigin(t *testing.T) {
	p := New(path(0, 0, 0), nil)
	p.Origin = -1
	if got := p.Boundary(5); len(got) != 3 {
		t.Fatalf("merged-pattern boundary should be all vertices, got %v", got)
	}
}

// spiderSetEqual compares the exact spider-set representations of two
// pattern graphs (not just the hashes).
func spiderSetEqual(a, b *graph.Graph, r int) bool {
	cz := canon.NewCanonizer()
	return slices.Equal(SpiderSetWith(cz, a, r), SpiderSetWith(cz, b, r))
}

func TestRootedSpiderCodeDistinguishesHead(t *testing.T) {
	// P3 with labels 1-1-2: the two label-1 vertices have different
	// neighborhoods at r=1 (one sees {1}, the other {1,2}).
	g := path(1, 1, 2)
	cz := canon.NewCanonizer()
	c0 := RootedSpiderCodeWith(cz, g, 0, 1)
	c1 := RootedSpiderCodeWith(cz, g, 1, 1)
	if c0 == c1 {
		t.Fatal("distinct neighborhoods share a rooted code")
	}
}

func TestRootedSpiderCodeHeadMatters(t *testing.T) {
	// Symmetric P3 0-0-0: ends are equivalent, center is not.
	g := path(0, 0, 0)
	cz := canon.NewCanonizer()
	e0 := RootedSpiderCodeWith(cz, g, 0, 1)
	e2 := RootedSpiderCodeWith(cz, g, 2, 1)
	c := RootedSpiderCodeWith(cz, g, 1, 1)
	if e0 != e2 {
		t.Fatal("symmetric ends should share a code")
	}
	if e0 == c {
		t.Fatal("end and center should differ")
	}
}

func TestSpiderSetTheorem2(t *testing.T) {
	// Theorem 2: isomorphic graphs have equal spider-sets. Build a graph
	// and a relabeled copy.
	g := star(1, 2, 2, 3)
	h := graph.FromEdges([]graph.Label{3, 1, 2, 2}, // same star, different vertex order
		[]graph.Edge{{U: 1, W: 0}, {U: 1, W: 2}, {U: 1, W: 3}})
	if !spiderSetEqual(g, h, 1) {
		t.Fatal("isomorphic graphs with different vertex order must share spider-sets")
	}
	cz := canon.NewCanonizer()
	if HashSpiderSet(SpiderSetWith(cz, g, 1)) != HashSpiderSet(SpiderSetWith(cz, h, 1)) {
		t.Fatal("spider-set hashes differ")
	}
}

func TestSpiderSetPrunesNonIsomorphic(t *testing.T) {
	p4 := path(0, 0, 0, 0)
	s4 := star(0, 0, 0, 0) // K1,3 plus... star(0,0,0,0) has 4 leaves; build K1,3
	k13 := star(0, 0, 0)
	_ = s4
	if spiderSetEqual(p4, k13, 1) {
		t.Fatal("P4 and K1,3 share spider-sets at r=1")
	}
}

// TestSpiderSetRadiusPower reproduces the Figure 3(II) phenomenon: two
// non-isomorphic graphs whose r=1 spider-sets coincide but whose r=2
// spider-sets differ — larger r gives the heuristic more separating power.
func TestSpiderSetRadiusPower(t *testing.T) {
	// C8 vs 2xC4 (all labels equal, triangle-free, 2-regular): every
	// vertex's induced 1-neighborhood is a P3 with the head in the middle,
	// so the r=1 spider-sets agree. At r=2, C8's neighborhoods are P5s
	// while C4's close into the whole 4-cycle.
	cycle := func(offsets []graph.V, n int) []graph.Edge {
		var es []graph.Edge
		for _, off := range offsets {
			for i := 0; i < n; i++ {
				es = append(es, graph.Edge{U: off + graph.V(i), W: off + graph.V((i+1)%n)})
			}
		}
		return es
	}
	labels := make([]graph.Label, 8)
	c8 := graph.FromEdges(labels, cycle([]graph.V{0}, 8))
	c44 := graph.FromEdges(labels, append(cycle([]graph.V{0}, 4), cycle([]graph.V{4}, 4)...))
	if !spiderSetEqual(c8, c44, 1) {
		t.Fatal("C8 and 2xC4 should share r=1 spider-sets (the pruning blind spot)")
	}
	if spiderSetEqual(c8, c44, 2) {
		t.Fatal("r=2 spider-sets must separate C8 from 2xC4")
	}
}

func TestSpiderSetSignatureCache(t *testing.T) {
	p := New(path(0, 1, 0), nil)
	cz := canon.NewCanonizer()
	s1 := p.SpiderSetSignatureWith(cz, 1)
	s2 := p.SpiderSetSignatureWith(cz, 1)
	if s1 != s2 {
		t.Fatal("cached signature changed")
	}
	// different radius recomputes
	s3 := p.SpiderSetSignatureWith(cz, 2)
	_ = s3
	if p.SpiderSetSignatureWith(cz, 1) != s1 {
		t.Fatal("signature at r=1 not stable after r=2 query")
	}
}

func TestSameStructure(t *testing.T) {
	a := New(path(1, 2, 3), nil)
	b := New(path(3, 2, 1), nil) // reversed: isomorphic
	c := New(path(1, 3, 2), nil) // different adjacency of labels
	cz := canon.NewCanonizer()
	if a.CanonicalCodeWith(cz) != b.CanonicalCodeWith(cz) {
		t.Fatal("reversed path should match")
	}
	if a.CanonicalCodeWith(cz) == c.CanonicalCodeWith(cz) {
		t.Fatal("different label arrangement should not match")
	}
}

// Property: Theorem 2 on random graphs — permuted copies share spider-set
// hashes at r=1 and r=2.
func TestQuickTheorem2(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		b := graph.NewBuilder(n, 2*n)
		for i := 0; i < n; i++ {
			b.AddVertex(graph.Label(rng.Intn(3)))
		}
		for i := 0; i < 2*n; i++ {
			b.AddEdge(graph.V(rng.Intn(n)), graph.V(rng.Intn(n)))
		}
		g := b.Build()
		// permute
		perm := rng.Perm(n)
		pb := graph.NewBuilder(n, g.M())
		inv := make([]graph.V, n)
		for newV := 0; newV < n; newV++ {
			pb.AddVertex(g.Label(graph.V(perm[newV])))
		}
		for newV, oldV := range perm {
			inv[oldV] = graph.V(newV)
		}
		for _, e := range g.Edges() {
			pb.AddEdge(inv[e.U], inv[e.W])
		}
		h := pb.Build()
		return spiderSetEqual(g, h, 1) && spiderSetEqual(g, h, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

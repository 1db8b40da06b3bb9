package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// Differential tests for the merge kernel's graph side: the in-place
// union subgraph build, the linear edge-list merge and the single-pass
// diameter bound, each against the straightforward code it replaces.

// randomSortedEdges returns a random duplicate-free subset of g's edges,
// sorted by (U, W), of at most k edges.
func randomSortedEdges(rng *rand.Rand, g *Graph, k int) []Edge {
	all := g.Edges()
	rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	if k > len(all) {
		k = len(all)
	}
	out := slices.Clone(all[:k])
	SortEdges(out)
	return out
}

// TestSubgraphScratchMatchesSubgraphOfEdges: one reused SubgraphScratch
// rebuilds, over unions of growing and shrinking size, exactly the graph
// and vertex map SubgraphOfEdges builds: labels, offsets, neighbors,
// sketches, and a label index that reflects the new contents although the
// previous one was forced before the rebuild.
func TestSubgraphScratchMatchesSubgraphOfEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rounds := 400
	if testing.Short() {
		rounds = 60
	}
	var sc SubgraphScratch
	for r := 0; r < rounds; r++ {
		host := randomGraph(rng, 2+rng.Intn(80), rng.Intn(300))
		// Alternate large and small unions so the scratch arrays both grow
		// and get resliced shorter.
		k := rng.Intn(6)
		if r%2 == 0 {
			k = rng.Intn(host.M() + 1)
		}
		edges := randomSortedEdges(rng, host, k)
		if r > 0 {
			sc.g.ensureLabelIndex() // a stale index must not survive the rebuild
		}
		got, gotVerts := sc.OfSortedEdges(host, edges)
		want, wantVerts := host.SubgraphOfEdges(edges)
		sameGraph(t, got, want)
		if !slices.Equal(got.offs, want.offs) || !slices.Equal(got.nbrs, want.nbrs) {
			t.Fatalf("round %d: CSR arrays differ: offs %v vs %v", r, got.offs, want.offs)
		}
		if !slices.Equal(gotVerts, wantVerts) {
			t.Fatalf("round %d: vertex map %v, want %v", r, gotVerts, wantVerts)
		}
		if got.NumLabels() != want.NumLabels() {
			t.Fatalf("round %d: NumLabels %d, want %d", r, got.NumLabels(), want.NumLabels())
		}
		for v := 0; v < want.N(); v++ {
			l := want.Label(V(v))
			if !slices.Equal(got.VerticesWithLabel(l), want.VerticesWithLabel(l)) {
				t.Fatalf("round %d: label %d index %v, want %v", r, l, got.VerticesWithLabel(l), want.VerticesWithLabel(l))
			}
		}
		c := got.Clone()
		sameGraph(t, c, want)
	}
}

// TestSubgraphScratchEpochWrap: the endpoint table stays correct when the
// epoch counter wraps around. The first rebuild stamps its endpoints with
// epoch 1; the wrapping rebuild takes the same edges, so a stamp surviving
// the wrap would hide every endpoint.
func TestSubgraphScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	host := randomGraph(rng, 40, 120)
	first := randomSortedEdges(rng, host, 10)
	var sc SubgraphScratch
	sc.OfSortedEdges(host, first)
	sc.epoch = math.MaxUint32
	for r := 0; r < 6; r++ {
		edges := first
		if r > 0 {
			edges = randomSortedEdges(rng, host, 1+rng.Intn(20))
		}
		got, gotVerts := sc.OfSortedEdges(host, edges)
		want, wantVerts := host.SubgraphOfEdges(edges)
		sameGraph(t, got, want)
		if !slices.Equal(gotVerts, wantVerts) {
			t.Fatalf("round %d (epoch %d): vertex map %v, want %v", r, sc.epoch, gotVerts, wantVerts)
		}
	}
}

// TestSubgraphScratchWarmNoAlloc: a warm rebuild no larger than an
// earlier one allocates nothing.
func TestSubgraphScratchWarmNoAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	host := randomGraph(rng, 60, 200)
	edges := randomSortedEdges(rng, host, 40)
	var sc SubgraphScratch
	sc.OfSortedEdges(host, edges)
	if allocs := testing.AllocsPerRun(50, func() { sc.OfSortedEdges(host, edges[:25]) }); allocs != 0 {
		t.Errorf("warm OfSortedEdges allocates %.1f/op, want 0", allocs)
	}
}

// TestAppendMergedEdgesMatchesSortCompact: the linear merge of two sorted
// duplicate-free lists equals concatenating, sorting and compacting them.
func TestAppendMergedEdgesMatchesSortCompact(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	rounds := 2000
	if testing.Short() {
		rounds = 200
	}
	for r := 0; r < rounds; r++ {
		host := randomGraph(rng, 2+rng.Intn(30), rng.Intn(90))
		a := randomSortedEdges(rng, host, rng.Intn(host.M()+1))
		b := randomSortedEdges(rng, host, rng.Intn(host.M()+1))
		want := append(slices.Clone(a), b...)
		slices.SortFunc(want, cmpEdge)
		want = slices.Compact(want)
		prefix := []Edge{{7, 9}}
		got := AppendMergedEdges(slices.Clone(prefix), a, b)
		if !slices.Equal(got[:1], prefix) || !slices.Equal(got[1:], want) {
			t.Fatalf("round %d: merge(%v, %v) = %v, want %v after the prefix", r, a, b, got, want)
		}
	}
}

// randomTree returns a random labeled tree on n vertices: each vertex
// after the first hangs off an earlier one.
func randomTree(rng *rand.Rand, n int) *Graph {
	b := NewBuilder(n, n-1)
	for i := 0; i < n; i++ {
		b.AddVertex(Label(rng.Intn(3)))
		if i > 0 {
			b.AddEdge(V(rng.Intn(i)), V(i))
		}
	}
	return b.Build()
}

// TestDiameterAtMostMatchesDiameter: DiameterAtMost(d) equals
// IsConnected() && Diameter() <= d on random graphs, connected and
// disconnected, at every threshold from below 0 to past the diameter.
func TestDiameterAtMostMatchesDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	rounds := 600
	if testing.Short() {
		rounds = 100
	}
	connected, disconnected := 0, 0
	for r := 0; r < rounds; r++ {
		n := 1 + rng.Intn(25)
		// Sparse draws are often disconnected, dense ones connected; every
		// third draw is a random tree, connected and of larger diameter.
		g := randomGraph(rng, n, rng.Intn(3*n))
		if r%3 == 0 {
			g = randomTree(rng, 1+rng.Intn(60))
		}
		conn, diam := g.IsConnected(), g.Diameter()
		if conn {
			connected++
		} else {
			disconnected++
		}
		for d := -1; d <= diam+2; d++ {
			if got, want := g.DiameterAtMost(d), conn && diam <= d; got != want {
				t.Fatalf("round %d (n=%d m=%d connected=%v diameter=%d): DiameterAtMost(%d) = %v, want %v",
					r, g.N(), g.M(), conn, diam, d, got, want)
			}
		}
	}
	if connected == 0 || disconnected == 0 {
		t.Fatalf("draws covered connected=%d disconnected=%d graphs; need both", connected, disconnected)
	}
	if !(&Graph{}).DiameterAtMost(0) {
		t.Fatal("empty graph rejected")
	}
}

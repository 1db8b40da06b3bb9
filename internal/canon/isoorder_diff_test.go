package canon

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// isoOrderScan is the reference for isoOrderInto, an O(n²) linear scan:
// each pick walks all vertices and keeps the first one with the most
// placed neighbours, then the smallest candidate group (ghi-glo), then the
// highest degree.
func isoOrderScan(a *graph.Graph, glo, ghi []int32) []graph.V {
	n := a.N()
	placed := make([]bool, n)
	adjPlaced := make([]int32, n)
	var order []graph.V
	pick := func() graph.V {
		best := graph.V(-1)
		for v := 0; v < n; v++ {
			if placed[v] {
				continue
			}
			if best < 0 {
				best = graph.V(v)
				continue
			}
			bv, vv := best, graph.V(v)
			switch {
			case adjPlaced[vv] != adjPlaced[bv]:
				if adjPlaced[vv] > adjPlaced[bv] {
					best = vv
				}
			case ghi[vv]-glo[vv] != ghi[bv]-glo[bv]:
				if ghi[vv]-glo[vv] < ghi[bv]-glo[bv] {
					best = vv
				}
			case a.Degree(vv) > a.Degree(bv):
				best = vv
			}
		}
		return best
	}
	for len(order) < n {
		v := pick()
		placed[v] = true
		order = append(order, v)
		for _, w := range a.Neighbors(v) {
			adjPlaced[w]++
		}
	}
	return order
}

// symmetricCorpus is a set of highly symmetric shapes, where nearly every
// ordering decision is a tie.
func symmetricCorpus() []*graph.Graph {
	return []*graph.Graph{
		star(12, 0, 0),
		star(9, 1, 0),
		spiderLegs(6, 3, 0),
		cycle(9, 0),
		cycle(24, 2),
		completeBipartite(4, 5, 0),
		completeBipartite(3, 3, 1),
		grid(6, 7),
	}
}

// grid returns a w×h grid, all labels equal.
func grid(w, h int) *graph.Graph {
	b := graph.NewBuilder(w*h, 2*w*h)
	for i := 0; i < w*h; i++ {
		b.AddVertex(0)
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := graph.V(y*w + x)
			if x+1 < w {
				b.AddEdge(v, v+1)
			}
			if y+1 < h {
				b.AddEdge(v, v+graph.V(w))
			}
		}
	}
	return b.Build()
}

// TestIsoOrderHeapMatchesScan: the lazy-heap order equals the linear-scan
// order, both for arbitrary candidate-group sizes (few distinct sizes, so
// ties abound) and for the ranges a real MapColored call resolves.
func TestIsoOrderHeapMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	var s Iso
	check := func(name string, a *graph.Graph, glo, ghi []int32) {
		t.Helper()
		s.glo, s.ghi = glo, ghi
		got := slices.Clone(s.isoOrderInto(a))
		if want := isoOrderScan(a, glo, ghi); !slices.Equal(got, want) {
			t.Fatalf("%s (n=%d m=%d): heap order %v, want scan order %v", name, a.N(), a.M(), got, want)
		}
	}
	randomRanges := func(n, sizes int) ([]int32, []int32) {
		glo, ghi := make([]int32, n), make([]int32, n)
		for v := range glo {
			glo[v] = int32(rng.Intn(5))
			ghi[v] = glo[v] + int32(rng.Intn(sizes))
		}
		return glo, ghi
	}
	corpus := symmetricCorpus()
	for r := 0; r < rounds; r++ {
		n := 1 + rng.Intn(60)
		corpus = append(corpus, randomGraph(n, rng.Intn(3*n), 1+rng.Intn(3), rng))
	}
	corpus = append(corpus, randomGraph(600, 1500, 3, rng))
	for i, a := range corpus {
		glo, ghi := randomRanges(a.N(), 1+rng.Intn(3))
		check("random ranges", a, glo, ghi)
		// The ranges a real search resolves against a permuted copy.
		b := permute(a, rng)
		var sb Iso
		sb.Invariant(b)
		cb, fb := sb.Colors()
		s.Invariant(a)
		ca, fa := s.Colors()
		if s.MapColored(a, ca, fa, b, cb, fb) == nil {
			t.Fatalf("corpus %d: permuted copy not mapped", i)
		}
		if want := isoOrderScan(a, s.glo, s.ghi); !slices.Equal(s.order, want) {
			t.Fatalf("corpus %d: MapColored searched in order %v, want scan order %v", i, s.order, want)
		}
	}
}

// validMapping reports whether mp is a label- and adjacency-preserving
// bijection from a to b.
func validMapping(a, b *graph.Graph, mp Mapping) bool {
	if len(mp) != a.N() || a.N() != b.N() || a.M() != b.M() {
		return false
	}
	hit := make([]bool, b.N())
	for av, bv := range mp {
		if bv < 0 || int(bv) >= b.N() || hit[bv] || a.Label(graph.V(av)) != b.Label(bv) {
			return false
		}
		hit[bv] = true
	}
	for _, e := range a.Edges() {
		if !b.HasEdge(mp[e.U], mp[e.W]) {
			return false
		}
	}
	return true
}

// TestMapColoredMatchesMapInto: the search over colors kept from
// Invariant returns the same Mapping as MapInto on permuted isomorphic
// pairs, symmetric shapes included, and nil on pairs WL cannot tell
// apart that are not isomorphic.
func TestMapColoredMatchesMapInto(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	corpus := symmetricCorpus()
	for r := 0; r < rounds; r++ {
		n := 1 + rng.Intn(40)
		corpus = append(corpus, randomGraph(n, rng.Intn(3*n), 1+rng.Intn(4), rng))
	}
	corpus = append(corpus, randomGraph(500, 1200, 4, rng))
	var sa, sb, ref Iso
	for i, a := range corpus {
		b := permute(a, rng)
		ia, ib := sa.Invariant(a), sb.Invariant(b)
		if ia != ib {
			t.Fatalf("corpus %d: permuted copy has a different invariant", i)
		}
		ca, fa := sa.Colors()
		cb, fb := sb.Colors()
		got := sa.MapColored(a, ca, fa, b, cb, fb)
		want := ref.MapInto(a, b)
		if got == nil || want == nil {
			t.Fatalf("corpus %d (n=%d): isomorphic pair not mapped (colored %v, MapInto %v)", i, a.N(), got != nil, want != nil)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("corpus %d (n=%d): MapColored %v, MapInto %v", i, a.N(), got, want)
		}
		if !validMapping(a, b, got) {
			t.Fatalf("corpus %d: returned mapping is not an isomorphism", i)
		}
		// The colors Invariant left must survive the search.
		if c2, f2 := sa.Colors(); &c2[0] != &ca[0] || &f2[0] != &fa[0] {
			t.Fatalf("corpus %d: MapColored replaced the Invariant colors", i)
		}
		if a.N() > 0 && slices.Compare(ca, VertexColors(a)) != 0 {
			t.Fatalf("corpus %d: MapColored overwrote the Invariant colors", i)
		}
	}

	// Regular pairs with equal labels: WL colors every vertex alike, so
	// invariants and color multisets agree, yet no isomorphism exists.
	twoCycles := func(p, q int) *graph.Graph {
		b := graph.NewBuilder(p+q, p+q)
		for i := 0; i < p+q; i++ {
			b.AddVertex(0)
		}
		for i := 0; i < p; i++ {
			b.AddEdge(graph.V(i), graph.V((i+1)%p))
		}
		for i := 0; i < q; i++ {
			b.AddEdge(graph.V(p+i), graph.V(p+(i+1)%q))
		}
		return b.Build()
	}
	prism := graph.FromEdges(make([]graph.Label, 6), []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 2}, {U: 0, W: 2}, {U: 3, W: 4}, {U: 4, W: 5}, {U: 3, W: 5},
		{U: 0, W: 3}, {U: 1, W: 4}, {U: 2, W: 5},
	})
	negatives := [][2]*graph.Graph{
		{cycle(6, 0), twoCycles(3, 3)},
		{cycle(8, 0), twoCycles(4, 4)},
		{cycle(10, 0), twoCycles(4, 6)},
		{completeBipartite(3, 3, 0), prism},
	}
	for i, pr := range negatives {
		a, b := pr[0], permute(pr[1], rng)
		if sa.Invariant(a) != sb.Invariant(b) {
			t.Fatalf("negative %d: invariants differ, so the pair does not test the search", i)
		}
		ca, fa := sa.Colors()
		cb, fb := sb.Colors()
		if mp := sa.MapColored(a, ca, fa, b, cb, fb); mp != nil {
			t.Fatalf("negative %d: non-isomorphic pair mapped by %v", i, mp)
		}
		if mp := ref.MapInto(a, b); mp != nil {
			t.Fatalf("negative %d: MapInto mapped a non-isomorphic pair", i)
		}
	}
}

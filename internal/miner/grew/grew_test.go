package grew

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// motifForest builds k copies of a labeled path 1-2-3-4 plus isolated
// noise vertices.
func motifForest(k int) *graph.Graph {
	b := graph.NewBuilder(5*k, 3*k)
	for i := 0; i < k; i++ {
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		v4 := b.AddVertex(4)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		b.AddEdge(v3, v4)
		b.AddVertex(graph.Label(100 + i)) // isolated noise
	}
	return b.Build()
}

func TestGrewContractsRepeatedMotif(t *testing.T) {
	g := motifForest(5)
	res := Mine(g, Config{MinSupport: 3})
	if len(res) == 0 {
		t.Fatal("no patterns")
	}
	best := res[0]
	if best.P.Size() < 2 {
		t.Fatalf("best pattern only %d edges; contraction did not cascade", best.P.Size())
	}
	if best.Instances < 3 {
		t.Fatalf("instances %d < σ", best.Instances)
	}
	// Instances must be vertex-disjoint.
	seen := map[graph.V]bool{}
	for _, e := range best.P.Emb {
		for _, hv := range e {
			if seen[hv] {
				t.Fatal("instances share a vertex")
			}
			seen[hv] = true
		}
	}
}

func TestGrewEmbeddingsValid(t *testing.T) {
	g := motifForest(4)
	for _, r := range Mine(g, Config{MinSupport: 2}) {
		for _, e := range r.P.Emb {
			for v := 0; v < r.P.NV(); v++ {
				if g.Label(e[v]) != r.P.G.Label(graph.V(v)) {
					t.Fatal("label mismatch in instance")
				}
			}
			for _, pe := range r.P.G.Edges() {
				if !g.HasEdge(e[pe.U], e[pe.W]) {
					t.Fatal("instance edge missing in host")
				}
			}
		}
	}
}

func TestGrewRespectsSupport(t *testing.T) {
	g := motifForest(2)
	for _, r := range Mine(g, Config{MinSupport: 3}) {
		if r.Instances < 3 {
			t.Fatalf("pattern with %d instances returned at σ=3", r.Instances)
		}
	}
}

func TestGrewMaxPatternVertices(t *testing.T) {
	g := motifForest(5)
	for _, r := range Mine(g, Config{MinSupport: 2, MaxPatternVertices: 2}) {
		if r.P.NV() > 2 {
			t.Fatalf("size cap violated: %d vertices", r.P.NV())
		}
	}
}

func TestGrewFindsLargePatternsQuickly(t *testing.T) {
	// The paper's characterization: GREW can discover some large patterns
	// quickly (but with no completeness guarantee). On GID-1-like data it
	// should terminate fast and find something beyond single edges.
	g, _ := gen.Synthetic(gen.GIDConfig(1, 3))
	res := Mine(g, Config{MinSupport: 2})
	if len(res) == 0 {
		t.Skip("nothing contracted on this seed")
	}
	if res[0].P.Size() < 2 {
		t.Fatalf("GREW found only single edges (best %d)", res[0].P.Size())
	}
}

func TestGrewEmptyGraph(t *testing.T) {
	b := graph.NewBuilder(0, 0)
	if res := Mine(b.Build(), Config{}); len(res) != 0 {
		t.Fatal("patterns from empty graph")
	}
}

// TestGrewDeterministic: mining one host repeatedly returns the same
// results in the same order. Neither Go map order nor invariant hash
// values may decide between tied results (equal size and instance count)
// or between equally frequent connection types.
func TestGrewDeterministic(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 2
	}
	encode := func(res []Result) string {
		var s string
		for _, r := range res {
			s += fmt.Sprintf("%d %v %v %v;", r.Instances, r.P.G.Edges(), r.P.G.Labels(), r.P.Emb)
		}
		return s
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		g := gen.BarabasiAlbert(600, 2, 6, rand.New(rand.NewSource(seed)))
		first := encode(Mine(g, Config{MinSupport: 2}))
		for i := 1; i < 20; i++ {
			if got := encode(Mine(g, Config{MinSupport: 2})); got != first {
				t.Fatalf("host seed %d: mine %d returned different results than mine 0", seed, i)
			}
		}
	}
}

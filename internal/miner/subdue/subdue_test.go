package subdue

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// repeatedMotifGraph: k copies of a 4-vertex motif plus noise.
func repeatedMotifGraph(k int) *graph.Graph {
	b := graph.NewBuilder(6*k, 8*k)
	for i := 0; i < k; i++ {
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		v4 := b.AddVertex(4)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		b.AddEdge(v3, v4)
		n1 := b.AddVertex(graph.Label(10 + i))
		n2 := b.AddVertex(graph.Label(20 + i))
		b.AddEdge(v1, n1)
		b.AddEdge(n1, n2)
	}
	return b.Build()
}

func TestSubdueFindsRepeatedMotif(t *testing.T) {
	g := repeatedMotifGraph(6)
	res := mine(g, Config{MinSupport: 2})
	if len(res) == 0 {
		t.Fatal("no substructures found")
	}
	best := res[0]
	if best.Instances < 2 {
		t.Fatalf("best substructure has %d instances", best.Instances)
	}
	if best.Score <= 0 {
		t.Fatalf("best score %f not positive", best.Score)
	}
	// The motif path 1-2-3-4 (or a sub-path) should dominate.
	if best.P.Size() < 1 || best.P.Size() > 5 {
		t.Fatalf("unexpected best size %d", best.P.Size())
	}
}

func TestSubdueInstancesVertexDisjoint(t *testing.T) {
	g := repeatedMotifGraph(4)
	for _, s := range mine(g, Config{MinSupport: 2}) {
		if s.Instances > len(s.P.Emb) {
			t.Fatal("instances exceed embeddings")
		}
	}
}

func TestSubdueEmptyishGraph(t *testing.T) {
	b := graph.NewBuilder(3, 1)
	b.AddVertex(1)
	b.AddVertex(2)
	b.AddVertex(3)
	b.AddEdge(0, 1)
	res := mine(b.Build(), Config{MinSupport: 2})
	if len(res) != 0 {
		t.Fatalf("nothing is frequent at σ=2, got %d results", len(res))
	}
}

func TestSubdueShiftsSmallWithNoise(t *testing.T) {
	// GID-3-like setting: many high-support small patterns. SUBDUE's best
	// substructure should be small (the paper's Figures 6-7 observation).
	g, _ := gen.Synthetic(gen.GIDConfig(3, 11))
	res := mine(g, Config{MinSupport: 2})
	if len(res) == 0 {
		t.Skip("no substructures on this seed")
	}
	if res[0].P.NV() > 10 {
		t.Fatalf("SUBDUE best on noisy data should be small, got |V|=%d", res[0].P.NV())
	}
}

func TestCompression(t *testing.T) {
	g := repeatedMotifGraph(5)
	res := mine(g, Config{MinSupport: 2, MaxBest: 3})
	for i := 1; i < len(res); i++ {
		if res[i-1].Score < res[i].Score {
			t.Fatal("results not score-sorted")
		}
	}
}

func TestCompressIteration(t *testing.T) {
	g := repeatedMotifGraph(6)
	res1 := mine(g, Config{MinSupport: 2, Iterations: 1})
	res2 := mine(g, Config{MinSupport: 2, Iterations: 2})
	if len(res2) < len(res1) {
		t.Fatalf("second compression iteration lost results: %d vs %d", len(res2), len(res1))
	}
}

// mine runs MineContext under a context that never fires.
func mine(g *graph.Graph, cfg Config) []Scored {
	res, _ := MineContext(context.Background(), g, cfg)
	return res
}

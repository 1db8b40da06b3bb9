package moss

import (
	"context"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/support"
)

// twoTriangles: two disjoint labeled triangles.
func twoTriangles() *graph.Graph {
	b := graph.NewBuilder(6, 6)
	for i := 0; i < 2; i++ {
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		b.AddEdge(v1, v3)
	}
	return b.Build()
}

func TestMossCompleteOnTinyGraph(t *testing.T) {
	g := twoTriangles()
	res := mine(g, Config{MinSupport: 2, Measure: support.CountAll})
	if !res.Completed {
		t.Fatal("tiny graph must complete")
	}
	// Complete frequent set: 3 single edges, 3 paths of 2 edges (1-2-3,
	// 2-1-3, 1-3-2), 1 triangle = 7 patterns.
	if len(res.Patterns) != 7 {
		for _, p := range res.Patterns {
			t.Logf("  %v labels=%v", p, p.G.Labels())
		}
		t.Fatalf("complete set size %d, want 7", len(res.Patterns))
	}
	// The triangle must be present with 2 embeddings.
	found := false
	for _, p := range res.Patterns {
		if p.Size() == 3 && p.NV() == 3 && len(p.Emb) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("triangle missing from complete set")
	}
}

func TestMossRespectsMinSupport(t *testing.T) {
	g := twoTriangles()
	res := mine(g, Config{MinSupport: 3})
	if len(res.Patterns) != 0 {
		t.Fatalf("nothing has support 3, got %d patterns", len(res.Patterns))
	}
}

func TestMossTimeoutAborts(t *testing.T) {
	// A denser graph with 1ns timeout must abort immediately.
	b := graph.NewBuilder(30, 90)
	for i := 0; i < 30; i++ {
		b.AddVertex(graph.Label(i % 3))
	}
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j += 3 {
			b.AddEdge(graph.V(i), graph.V(j))
		}
	}
	g := b.Build()
	res := mine(g, Config{MinSupport: 2, Timeout: time.Nanosecond})
	if res.Completed {
		t.Fatal("1ns timeout should abort")
	}
}

func TestMossMaxPatternsAborts(t *testing.T) {
	g := twoTriangles()
	res := mine(g, Config{MinSupport: 2, MaxPatterns: 2})
	if res.Completed {
		t.Fatal("MaxPatterns=2 should abort with 7 frequent patterns")
	}
	if len(res.Patterns) < 2 {
		t.Fatalf("should keep the prefix: %d", len(res.Patterns))
	}
}

func TestMossMaxEdges(t *testing.T) {
	g := twoTriangles()
	res := mine(g, Config{MinSupport: 2, MaxEdges: 1})
	for _, p := range res.Patterns {
		if p.Size() > 2 {
			t.Fatalf("MaxEdges=1 means no pattern beyond 2 edges can appear, got %d", p.Size())
		}
	}
}

func TestMossHarmfulOverlapMeasure(t *testing.T) {
	// Host P3 (all labels 0): the 0-0 edge has two embeddings {0,1} and
	// {1,2} sharing host vertex 1 at equivalent pattern positions — a
	// harmful overlap, so the harmful-overlap support is 1 while the raw
	// count is 2.
	b := graph.NewBuilder(3, 2)
	for i := 0; i < 3; i++ {
		b.AddVertex(0)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	all := mine(g, Config{MinSupport: 2, Measure: support.CountAll})
	ho := mine(g, Config{MinSupport: 2, Measure: support.HarmfulOverlap})
	if len(all.Patterns) == 0 {
		t.Fatal("count-all should keep the 0-0 edge")
	}
	if len(ho.Patterns) != 0 {
		t.Fatalf("harmful-overlap should prune everything, kept %d", len(ho.Patterns))
	}
}

// mine runs MineContext under a context that never fires.
func mine(g *graph.Graph, cfg Config) *Result {
	res, _ := MineContext(context.Background(), g, cfg)
	return res
}

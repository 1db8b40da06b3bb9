package seus

import (
	"context"
	"testing"

	"repro/internal/graph"
)

func hostGraph() *graph.Graph {
	// three 1-2 edges, two 2-3 edges
	b := graph.NewBuilder(10, 5)
	for i := 0; i < 3; i++ {
		u := b.AddVertex(1)
		w := b.AddVertex(2)
		b.AddEdge(u, w)
	}
	for i := 0; i < 2; i++ {
		u := b.AddVertex(2)
		w := b.AddVertex(3)
		b.AddEdge(u, w)
	}
	return b.Build()
}

func TestBuildSummary(t *testing.T) {
	g := hostGraph()
	s := BuildSummary(g)
	if len(s.Labels) != 3 {
		t.Fatalf("summary labels %d, want 3", len(s.Labels))
	}
	total := 0
	for _, w := range s.Weight {
		total += w
	}
	if total != g.M() {
		t.Fatalf("summary weights %d, want %d", total, g.M())
	}
}

func TestSeusFindsFrequentEdges(t *testing.T) {
	g := hostGraph()
	res := mine(g, Config{MinSupport: 2})
	if len(res) == 0 {
		t.Fatal("no results")
	}
	for _, r := range res {
		if r.Support < 2 {
			t.Fatalf("infrequent result support=%d", r.Support)
		}
	}
	// must find the 1-2 edge with support 3
	found := false
	for _, r := range res {
		if r.P.Size() == 1 && r.Support >= 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("1-2 edge (support 3) missing")
	}
}

func TestSeusSummaryOverestimates(t *testing.T) {
	// Summary says label pair (1,2) has weight 3, but a 2-edge chain
	// 1-2, 2-3 only exists where a label-2 vertex has both neighbors —
	// never here, since each label-2 vertex has degree 1. Verification
	// must prune it.
	g := hostGraph()
	for _, r := range mine(g, Config{MinSupport: 2}) {
		if r.P.Size() >= 2 {
			t.Fatalf("verification failed to prune candidate %v (support %d)", r.P, r.Support)
		}
	}
}

func TestSeusReturnsSmallStructures(t *testing.T) {
	g := hostGraph()
	for _, r := range mine(g, Config{MinSupport: 2, MaxEdges: 3}) {
		if r.P.Size() > 3 {
			t.Fatalf("MaxEdges violated: %d", r.P.Size())
		}
	}
}

func TestSeusCandidateBudget(t *testing.T) {
	g := hostGraph()
	res := mine(g, Config{MinSupport: 1, MaxCandidates: 3})
	_ = res // must terminate quickly; nothing more to assert
}

// mine runs MineContext under a context that never fires.
func mine(g *graph.Graph, cfg Config) []Result {
	res, _ := MineContext(context.Background(), g, cfg)
	return res
}

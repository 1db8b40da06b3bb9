package spidermine

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// TestEdgeLabeledMining exercises the paper's §3 claim that the method
// applies to edge-labeled graphs, via the subdivision encoding: an
// edge-labeled motif planted twice must be recovered and decode back with
// its edge labels intact.
func TestEdgeLabeledMining(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Edge-labeled host: two copies of a triangle with vertex labels
	// 1,2,3 and edge labels 10,11,12, plus labeled noise edges.
	var (
		labels  []graph.Label
		edges   []graph.Edge
		elabels []graph.Label
	)
	addV := func(l graph.Label) graph.V {
		labels = append(labels, l)
		return graph.V(len(labels) - 1)
	}
	addE := func(u, w graph.V, l graph.Label) {
		edges = append(edges, graph.Edge{U: u, W: w})
		elabels = append(elabels, l)
	}
	for c := 0; c < 2; c++ {
		v1, v2, v3 := addV(1), addV(2), addV(3)
		addE(v1, v2, 10)
		addE(v2, v3, 11)
		addE(v1, v3, 12)
	}
	for i := 0; i < 12; i++ {
		u := addV(graph.Label(4 + rng.Intn(4)))
		w := addV(graph.Label(4 + rng.Intn(4)))
		addE(u, w, graph.Label(13+rng.Intn(4)))
	}
	enc, err := graph.EncodeEdgeLabels(labels, edges, elabels, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Distances double under subdivision: the triangle's diameter 1
	// becomes 2.
	res := mine(enc, Config{MinSupport: 2, K: 3, Dmax: 4, Seed: 1})
	if len(res.Patterns) == 0 {
		t.Fatal("nothing mined on encoded graph")
	}
	top := res.Patterns[0]
	vl, de, _, err := graph.DecodeEdgeLabels(top.G, 0)
	if err != nil {
		t.Fatalf("top pattern does not decode: %v", err)
	}
	if len(vl) < 3 || len(de) < 2 {
		t.Fatalf("decoded pattern too small: %d vertices, %d edges", len(vl), len(de))
	}
	// Edge labels must come from the planted triangle.
	for _, e := range de {
		if e.Label < 10 || e.Label > 12 {
			t.Fatalf("unexpected edge label %d in decoded pattern", e.Label)
		}
	}
}

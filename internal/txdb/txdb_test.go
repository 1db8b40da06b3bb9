package txdb

import (
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestUnion(t *testing.T) {
	g1 := graph.FromEdges([]graph.Label{1, 2}, []graph.Edge{{U: 0, W: 1}})
	g2 := graph.FromEdges([]graph.Label{3, 4, 5}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	db := New(g1, g2)
	if len(db.Graphs) != 2 {
		t.Fatal("len")
	}
	u, txOf := db.Union()
	if u.N() != 5 || u.M() != 3 {
		t.Fatalf("union %v", u)
	}
	want := []int{0, 0, 1, 1, 1}
	for i, w := range want {
		if txOf[i] != w {
			t.Fatalf("txOf[%d]=%d, want %d", i, txOf[i], w)
		}
	}
	// labels preserved with offsets
	if u.Label(0) != 1 || u.Label(2) != 3 || u.Label(4) != 5 {
		t.Fatal("labels lost")
	}
	// no cross-graph edges
	if u.HasEdge(1, 2) {
		t.Fatal("cross-transaction edge")
	}
}

func TestUnionEmpty(t *testing.T) {
	u, txOf := New().Union()
	if u.N() != 0 || len(txOf) != 0 {
		t.Fatal("empty union wrong")
	}
}

func TestSyntheticTx(t *testing.T) {
	db, larges := SyntheticTx(SyntheticTxConfig{
		NumGraphs: 5, N: 120, AvgDeg: 3, NumLabels: 40,
		Large: gen.InjectSpec{NV: 10, Count: 2, Support: 1},
		Seed:  9,
	})
	if len(db.Graphs) != 5 {
		t.Fatalf("graphs %d", len(db.Graphs))
	}
	if len(larges) != 2 {
		t.Fatalf("large patterns %d", len(larges))
	}
	// every large pattern occurs in every transaction graph
	for pi, p := range larges {
		for gi, g := range db.Graphs {
			if canon.CountEmbeddings(p, g, 1) == 0 {
				t.Errorf("pattern %d missing from graph %d", pi, gi)
			}
		}
	}
}

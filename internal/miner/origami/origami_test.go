package origami

import (
	"context"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/txdb"
)

func smallDB() *txdb.DB {
	// 4 graphs each containing the path 1-2-3 plus unique noise.
	var gs []*graph.Graph
	for i := 0; i < 4; i++ {
		b := graph.NewBuilder(5, 4)
		v1 := b.AddVertex(1)
		v2 := b.AddVertex(2)
		v3 := b.AddVertex(3)
		b.AddEdge(v1, v2)
		b.AddEdge(v2, v3)
		n := b.AddVertex(graph.Label(10 + i))
		b.AddEdge(v1, n)
		gs = append(gs, b.Build())
	}
	return txdb.New(gs...)
}

func TestOrigamiFindsSharedPattern(t *testing.T) {
	db := smallDB()
	res := mine(db, Config{MinSupport: 4, Samples: 20, Seed: 1})
	if len(res) == 0 {
		t.Fatal("no representatives")
	}
	// The shared 1-2-3 path (support 4) must be representable; every
	// result must meet σ.
	for _, r := range res {
		if r.Support < 4 {
			t.Fatalf("infrequent representative: %d", r.Support)
		}
	}
	best := res[0]
	if best.P.Size() < 2 {
		t.Fatalf("maximal walk should reach the full shared path, got %d edges", best.P.Size())
	}
}

func TestOrigamiDeterministicPerSeed(t *testing.T) {
	db := smallDB()
	a := mine(db, Config{MinSupport: 4, Samples: 10, Seed: 7})
	b := mine(db, Config{MinSupport: 4, Samples: 10, Seed: 7})
	if len(a) != len(b) {
		t.Fatal("same seed, different result count")
	}
	for i := range a {
		if a[i].P.Size() != b[i].P.Size() || a[i].Support != b[i].Support {
			t.Fatal("same seed, different results")
		}
	}
}

func TestOrigamiAlphaOrthogonal(t *testing.T) {
	db := smallDB()
	res := mine(db, Config{MinSupport: 4, Samples: 30, Alpha: 0.3, Seed: 2})
	for i := 0; i < len(res); i++ {
		for j := i + 1; j < len(res); j++ {
			if s := Similarity(res[i].P.G, res[j].P.G); s > 0.3 {
				t.Fatalf("representatives %d and %d have similarity %f > α", i, j, s)
			}
		}
	}
}

func TestOrigamiBeta(t *testing.T) {
	db := smallDB()
	res := mine(db, Config{MinSupport: 4, Samples: 30, Beta: 1, Seed: 3})
	if len(res) > 1 {
		t.Fatalf("β=1 violated: %d representatives", len(res))
	}
}

func TestSimilarity(t *testing.T) {
	a := graph.FromEdges([]graph.Label{1, 2}, []graph.Edge{{U: 0, W: 1}})
	if s := Similarity(a, a); s != 1 {
		t.Fatalf("self-similarity %f", s)
	}
	b := graph.FromEdges([]graph.Label{3, 4}, []graph.Edge{{U: 0, W: 1}})
	if s := Similarity(a, b); s != 0 {
		t.Fatalf("disjoint similarity %f", s)
	}
}

// TestOrigamiSmallPatternBias reproduces the Fig. 15 mechanism: with many
// small maximal patterns, random walks rarely reach large patterns.
func TestOrigamiSmallPatternBias(t *testing.T) {
	db, _ := txdb.SyntheticTx(txdb.SyntheticTxConfig{
		NumGraphs: 4, N: 60, AvgDeg: 4, NumLabels: 30,
		Large: gen.InjectSpec{NV: 15, Count: 1, Support: 1},
		Small: gen.InjectSpec{NV: 4, Count: 20, Support: 1},
		Seed:  5,
	})
	res := mine(db, Config{MinSupport: 3, Samples: 8, Seed: 5, MaxEdges: 25, MaxEmbPerPattern: 64})
	if len(res) == 0 {
		t.Skip("nothing frequent at this seed")
	}
	small := 0
	for _, r := range res {
		if r.P.NV() <= 8 {
			small++
		}
	}
	if small == 0 {
		t.Fatal("expected a small-pattern-heavy representative set")
	}
}

// mine runs MineContext under a context that never fires.
func mine(db *txdb.DB, cfg Config) []Result {
	res, _ := MineContext(context.Background(), db, cfg)
	return res
}

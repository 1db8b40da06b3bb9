package experiments

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/miner/moss"
)

// TestGuaranteeTheorem1 empirically checks the paper's headline guarantee
// on a small graph where the exact answer is computable: across 6 seeds
// with ε=0.1, SpiderMine must recover the exact largest pattern in at
// least 4 of 6 runs (the bound is asymptotic; the greedy growth loses a
// little, so the test asserts a slacked threshold).
func TestGuaranteeTheorem1(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	trials, rep := GuaranteeCheck(context.Background(), 6, 0.1, 5, 0)
	succ := 0
	for _, tr := range trials {
		if tr.Success {
			succ++
		}
	}
	t.Logf("success %d/%d; exact=%d", succ, len(trials), trials[0].Exact)
	for _, n := range rep.Notes {
		t.Log(n)
	}
	if trials[0].Exact <= 0 {
		t.Fatal("exact enumeration found nothing — workload broken")
	}
	if succ < 4 {
		t.Fatalf("success rate %d/6 below slack threshold for ε=0.1", succ)
	}
}

// TestExactTopK sanity-checks the brute-force reference on a trivially
// known case: two disjoint triangles, σ=2 ⇒ top-1 is the triangle (3
// edges).
func TestExactTopK(t *testing.T) {
	g := twoTrianglesGraph()
	sizes := ExactTopK(context.Background(), g, 2, 3, 2)
	if len(sizes) == 0 || sizes[0] != 3 {
		t.Fatalf("exact top sizes %v, want leading 3", sizes)
	}
}

// TestExactTopKPatternsConnected pins what lets ExactTopK filter by
// DiameterAtMost: every MoSS pattern is connected, so the threshold test
// keeps exactly the patterns Diameter() <= dmax keeps. MoSS grows each
// pattern from a connected parent by one edge, so its first patterns show
// it as well as all of them would; the hosts (two triangles,
// GuaranteeCheck's host and two small random ones) would each take
// seconds to enumerate in full.
func TestExactTopKPatternsConnected(t *testing.T) {
	guarantee, _ := gen.Synthetic(gen.SyntheticConfig{
		N: 150, AvgDeg: 2.5, NumLabels: 40, Seed: 5,
		Large: gen.InjectSpec{NV: 10, Count: 2, Support: 2},
		Small: gen.InjectSpec{NV: 3, Count: 3, Support: 2},
	})
	rng := rand.New(rand.NewSource(7))
	for _, h := range []struct {
		name string
		g    *graph.Graph
	}{
		{"triangles", twoTrianglesGraph()},
		{"guarantee", guarantee},
		{"er", gen.ErdosRenyi(60, 2.5, 8, rng)},
		{"ba", gen.BarabasiAlbert(60, 2, 8, rng)},
	} {
		res, _ := moss.MineContext(context.Background(), h.g, moss.Config{MinSupport: 2, MaxPatterns: 5000})
		if len(res.Patterns) == 0 {
			t.Fatalf("%s: MoSS found no patterns", h.name)
		}
		for _, p := range res.Patterns {
			if !p.G.IsConnected() {
				t.Fatalf("%s: MoSS pattern with %d vertices is disconnected", h.name, p.NV())
			}
			for _, d := range []int{2, 4, 6} {
				if p.G.DiameterAtMost(d) != (p.G.Diameter() <= d) {
					t.Fatalf("%s: DiameterAtMost(%d) disagrees with diameter %d", h.name, d, p.G.Diameter())
				}
			}
		}
	}
}

// twoTrianglesGraph builds two disjoint labeled triangles.
func twoTrianglesGraph() *graph.Graph {
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

package spidermine

import (
	"testing"

	"repro/internal/gen"
)

// TestSmokeGID1 runs the full pipeline on the Table 1 GID-1 configuration
// and checks that SpiderMine recovers large patterns (the paper reports
// most of the 10 largest size-30 patterns on this dataset).
func TestSmokeGID1(t *testing.T) {
	g, injected := gen.Synthetic(gen.GIDConfig(1, 42))
	if g.N() != 400 {
		t.Fatalf("GID1 should have 400 vertices, got %d", g.N())
	}
	if len(injected) != 5 {
		t.Fatalf("expected 5 injected large patterns, got %d", len(injected))
	}
	res := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Epsilon: 0.1, Seed: 7})
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns returned")
	}
	t.Logf("stats: %v", res.Stats)
	for i, p := range res.Patterns {
		t.Logf("top-%d: %v diam=%d", i+1, p, p.G.Diameter())
	}
	best := res.Patterns[0]
	if best.NV() < 10 {
		t.Errorf("largest pattern too small: %d vertices (injected patterns have 30)", best.NV())
	}
}

package spidermine

import (
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestMinerResetReuse is the mixed-size soak for the pooled mining state:
// one warm Miner is Reset across hosts of increasing then decreasing size
// and must produce byte-identical results to a fresh Miner on every host.
// This is the contract Reset documents — pooled tables, arenas, and
// per-worker scratch may carry capacity between runs but never content.
// The fresh Miner may reuse the warm one's Stage I table (the Miner owns
// no Stage I state; see spider.MineStarsShared), so this compares the
// Stages II–III state; TestSharedStarsEqualCold covers reuse on its own.
// The BA hosts carry 50 and 40 labels: with 5 and 4 their patterns grew
// to 270–394 edges of a 300-vertex host, and those two mines took most of
// a minute under the race detector.
func TestMinerResetReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	gid1, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	hosts := []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"er100", gen.ErdosRenyi(100, 3, 4, rng), Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 1}},
		{"ba300", gen.BarabasiAlbert(300, 3, 50, rng), Config{MinSupport: 2, K: 8, Dmax: 4, Seed: 2}},
		{"gid1", gid1, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3}},
		{"gid1-workers", gid1, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3, Workers: 3}},
		{"ba300-again", gen.BarabasiAlbert(300, 2, 40, rng), Config{MinSupport: 2, K: 8, Dmax: 6, Seed: 4}},
		{"er60", gen.ErdosRenyi(60, 3, 3, rng), Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 5}},
	}
	var warm *Miner
	for i, h := range hosts {
		if warm == nil {
			warm = New(h.g, h.cfg)
		} else {
			warm.Reset(h.g, h.cfg)
		}
		got, _ := warm.RunContext(context.Background())
		want, _ := New(h.g, h.cfg).RunContext(context.Background())
		gj, err := json.Marshal(got.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		wj, err := json.Marshal(want.Patterns)
		if err != nil {
			t.Fatal(err)
		}
		if string(gj) != string(wj) {
			t.Fatalf("host %d (%s): warm Miner diverges from fresh Miner\nwarm:  %d patterns\nfresh: %d patterns", i, h.name, len(got.Patterns), len(want.Patterns))
		}
		if len(got.Patterns) == 0 {
			t.Fatalf("host %d (%s): no patterns mined", i, h.name)
		}
	}
}

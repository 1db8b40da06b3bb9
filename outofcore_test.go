package repro_test

// Out-of-core equivalence gates (README §Out-of-core): a host opened by
// mmap from an SPC1 image must mine byte-identically to the same host
// built in RAM — same patterns, same order, same embeddings — at every
// worker count. The image open path aliases the CSR arrays onto the
// mapped file instead of rebuilding them, so these tests are the proof
// that aliasing is invisible to every read path the miner exercises.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spidermine"
)

// mapHost writes g's SPC1 image to a temp file and opens it mapped; the
// cleanup unmaps.
func mapHost(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "host.spc1")
	if err := graph.WriteImageFile(g, path); err != nil {
		t.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	return m.Graph()
}

func resultFingerprint(t *testing.T, res *spidermine.Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestMappedEqualsBuilt is the differential harness: three generator
// regimes (Table 1 synthetic, scale-free BA, ER background) × seeds ×
// worker counts, each mined from the built graph and from its mapped
// twin, asserting byte-identical serialized results.
func TestMappedEqualsBuilt(t *testing.T) {
	type tc struct {
		name string
		g    *graph.Graph
		cfg  spidermine.Config
	}
	cases := []tc{
		{
			name: "gid1",
			cfg:  spidermine.Config{MinSupport: 2, K: 5, Dmax: 4},
		},
		{
			name: "ba",
			cfg:  spidermine.Config{MinSupport: 2, K: 3, Dmax: 2, MaxLeavesPerStar: 6, MaxSpiders: 20000},
		},
		{
			name: "er",
			cfg:  spidermine.Config{MinSupport: 2, K: 3, Dmax: 3},
		},
	}
	seeds := []int64{1, 2}
	workerCounts := []int{1, 4}
	if testing.Short() {
		cases = cases[:2]
		seeds = seeds[:1]
	}
	for i := range cases {
		switch cases[i].name {
		case "gid1":
			cases[i].g, _ = gen.Synthetic(gen.GIDConfig(1, 1))
		case "ba":
			cases[i].g = gen.BarabasiAlbert(3000, 4, 30, rand.New(rand.NewSource(11)))
		case "er":
			cases[i].g = gen.ErdosRenyi(2000, 3, 20, rand.New(rand.NewSource(12)))
		}
	}
	for _, c := range cases {
		mapped := mapHost(t, c.g)
		for _, seed := range seeds {
			cfg := c.cfg
			cfg.Seed = seed
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", c.name, seed, w), func(t *testing.T) {
					cfgW := cfg
					cfgW.Workers = w
					want := resultFingerprint(t, mineGraph(c.g, cfgW))
					got := resultFingerprint(t, mineGraph(mapped, cfgW))
					if got != want {
						t.Errorf("mapped result differs from built\nbuilt:  %.200s...\nmapped: %.200s...", want, got)
					}
				})
			}
		}
	}
}

// TestOutOfCoreMillionEdge is the acceptance gate: a generated host
// past 10^6 edges mines end-to-end through OpenMapped with results
// byte-identical to the in-RAM twin. Caps are all deterministic
// (structural counts, never wall-clock) so both runs take the same
// decisions.
func TestOutOfCoreMillionEdge(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: the million-edge host takes a few seconds")
	}
	g := gen.BarabasiAlbert(126000, 8, 50, rand.New(rand.NewSource(1)))
	if g.M() < 1_000_000 {
		t.Fatalf("generator produced %d edges, need >= 1e6", g.M())
	}
	mapped := mapHost(t, g)
	if mapped.N() != g.N() || mapped.M() != g.M() {
		t.Fatalf("mapped shape (%d,%d) differs from built (%d,%d)", mapped.N(), mapped.M(), g.N(), g.M())
	}
	cfg := spidermine.Config{
		MinSupport: 2, K: 3, Dmax: 2, Seed: 1,
		MaxLeavesPerStar: 2, MaxSpiders: 20000,
	}
	want := resultFingerprint(t, mineGraph(g, cfg))
	got := resultFingerprint(t, mineGraph(mapped, cfg))
	if got != want {
		t.Error("million-edge mapped mine differs from built")
	}
	if want == "null" {
		t.Error("million-edge mine returned no patterns; the gate proved nothing")
	}
}

package spider

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestStarMinerWarmNoAlloc pins the pooled-table contract of Stage I: a
// warm StarMiner re-mining a host it has seen before must not allocate.
// Every table — the CSR neighbor-label index, the level-1 triples, the
// per-worker block output, and the star table itself — is grown once and
// reused, so any allocation here means a pooled structure regressed to
// per-run churn (the pre-pooling behavior was ~25k allocs/run on this
// host).
func TestStarMinerWarmNoAlloc(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		opt  Options
	}{
		{"gid1", Options{MinSupport: 2}},
		{"gid1-capped", Options{MinSupport: 2, MaxLeaves: 3}},
	} {
		var sm StarMiner
		// Warm every table shape first; the first run owns the growth.
		if _, err := sm.Mine(ctx, g, tc.opt); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(5, func() {
			stars, err := sm.Mine(ctx, g, tc.opt)
			if err != nil || stars.Len() == 0 {
				t.Fatal("warm mine failed")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: warm StarMiner.Mine allocates %.1f/op, want 0", tc.name, allocs)
		}
	}
}

// TestStarMinerWarmAcrossHosts: reusing one StarMiner across hosts of
// different sizes (growing, then shrinking) must produce exactly what a
// throwaway miner produces on each — pooled tables may not leak one
// host's state into the next run.
func TestStarMinerWarmAcrossHosts(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	hosts := []struct {
		name string
		g    *graph.Graph
		opt  Options
	}{
		{"er80", gen.ErdosRenyi(80, 3, 3, rng), Options{MinSupport: 2}},
		{"ba200", gen.BarabasiAlbert(200, 3, 4, rng), Options{MinSupport: 3, MaxLeaves: 4}},
		{"er300", gen.ErdosRenyi(300, 4, 5, rng), Options{MinSupport: 2}},
		{"ba120", gen.BarabasiAlbert(120, 2, 4, rng), Options{MinSupport: 2}},
		{"er40", gen.ErdosRenyi(40, 3, 2, rng), Options{MinSupport: 2}},
	}
	ctx := context.Background()
	var warm StarMiner
	for _, h := range hosts {
		stars, err := warm.Mine(ctx, h.g, h.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := listStars(stars)
		want := listStars(mineStars(h.g, h.opt))
		if len(got) != len(want) {
			t.Fatalf("%s: warm miner found %d stars, fresh found %d", h.name, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i].Star, want[i].Star) || !reflect.DeepEqual(got[i].Hosts, want[i].Hosts) {
				t.Fatalf("%s: star %d diverges between warm and fresh miners:\nwarm  %+v\nfresh %+v", h.name, i, got[i], want[i])
			}
		}
	}
}

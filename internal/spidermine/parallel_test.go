package spidermine

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/txdb"
)

// fingerprint serializes the full pipeline result — pattern graphs
// (labels + edges), embedding lists, IDs, origins, report order — into one
// byte string. Two runs are "the same result" exactly when their
// fingerprints are byte-identical; this is the contract the parallel
// engine is held to.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res.Patterns)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// parallelTestCases returns the generator graphs the differential harness
// sweeps — two Table 1 synthetic networks with injected large patterns and
// one scale-free Barabási–Albert graph (the Figure 13 regime, where spider
// counts explode and merge rounds are pair-heavy) — each with a base
// config sized so the whole sweep stays inside a tier-1 test budget (the
// BA graph mines millions of stars uncapped).
func parallelTestCases() []struct {
	name string
	g    *graph.Graph
	cfg  Config
} {
	g1, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	g2, _ := gen.Synthetic(gen.GIDConfig(2, 7))
	ba := gen.BarabasiAlbert(500, 3, 25, rand.New(rand.NewSource(11)))
	return []struct {
		name string
		g    *graph.Graph
		cfg  Config
	}{
		{"gid1", g1, Config{MinSupport: 2, K: 10, Dmax: 4}},
		{"gid2", g2, Config{MinSupport: 2, K: 10, Dmax: 4}},
		{"ba500", ba, Config{MinSupport: 3, K: 10, Dmax: 4, MaxLeavesPerStar: 3, MaxSpiders: 20000}},
	}
}

// workStats is s without the stage durations: the counters of the work a
// run did.
func workStats(s Stats) Stats {
	s.StageI, s.StageII, s.StageIII = 0, 0, 0
	return s
}

// TestParallelEqualsSequential is the differential harness for the
// parallel mining engine: for every generator graph and seed, the full
// pipeline result must be bit-identical at every worker count — pattern
// set, sizes, supports, embeddings, and report order all fingerprint the
// same — and so must every Stats counter but the stage durations. Run with
// -race to also make it a race harness over Stages I–III.
func TestParallelEqualsSequential(t *testing.T) {
	workerCounts := []int{1, 2, 4, runtime.NumCPU()}
	cases := parallelTestCases()
	seeds := []int64{1, 7, 13}
	if testing.Short() {
		// Race-detector budget: one graph, two seeds still exercises every
		// parallel stage at every worker count.
		cases = cases[:1]
		seeds = seeds[:2]
	}
	for _, tc := range cases {
		for _, seed := range seeds {
			cfg := tc.cfg
			cfg.Seed = seed
			seq := mine(tc.g, cfg)
			want, wantStats := fingerprint(t, seq), workStats(seq.Stats)
			for _, w := range workerCounts {
				t.Run(fmt.Sprintf("%s/seed=%d/workers=%d", tc.name, seed, w), func(t *testing.T) {
					cfgW := cfg
					cfgW.Workers = w
					res := mine(tc.g, cfgW)
					got := fingerprint(t, res)
					if got != want {
						t.Errorf("workers=%d result differs from sequential run\nseq: %.200s...\npar: %.200s...", w, want, got)
					}
					if s := workStats(res.Stats); s != wantStats {
						t.Errorf("workers=%d stats %v, sequential run's %v", w, s, wantStats)
					}
				})
			}
		}
	}
}

// TestParallelEqualsSequentialHigherRadius covers the radius-2 seeding
// path (tree-spider materialization with per-worker matchers).
func TestParallelEqualsSequentialHigherRadius(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	cfg := Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7, Radius: 2, MaxSpiders: 4000}
	want := fingerprint(t, mine(g, cfg))
	for _, w := range []int{2, 4} {
		cfgW := cfg
		cfgW.Workers = w
		if got := fingerprint(t, mine(g, cfgW)); got != want {
			t.Errorf("radius-2 workers=%d result differs from sequential run", w)
		}
	}
}

// TestDeterminismRegressionFixedWorkers runs the same Config (same Seed,
// same worker count) three times and asserts byte-identical serialized
// results — the regression net against completion-order or map-iteration
// nondeterminism sneaking back into a parallel stage.
func TestDeterminismRegressionFixedWorkers(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
	for _, w := range []int{1, 4, -1} {
		cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 13, Workers: w}
		want := fingerprint(t, mine(g, cfg))
		for run := 1; run < 3; run++ {
			if got := fingerprint(t, mine(g, cfg)); got != want {
				t.Fatalf("workers=%d: run %d differs from run 0", w, run)
			}
		}
	}
}

// mineTx runs the transaction adapter without cancellation.
func mineTx(t *testing.T, db *txdb.DB, cfg Config) *Result {
	t.Helper()
	res, err := MineTransactionsContext(context.Background(), db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestDeterminismMineTransactions covers the transaction adapter: repeated
// runs at a fixed worker count are byte-identical, and the result matches
// the sequential engine at every worker count.
func TestDeterminismMineTransactions(t *testing.T) {
	db, _ := txdb.SyntheticTx(txdb.SyntheticTxConfig{
		NumGraphs: 8, N: 150, AvgDeg: 4, NumLabels: 50,
		Large: gen.InjectSpec{NV: 16, Count: 2, Support: 1},
		Seed:  21,
	})
	cfg := Config{MinSupport: 6, K: 5, Dmax: 6, Seed: 21}
	want := fingerprint(t, mineTx(t, db, cfg))
	for _, w := range []int{2, 4} {
		cfgW := cfg
		cfgW.Workers = w
		got := fingerprint(t, mineTx(t, db, cfgW))
		if got != want {
			t.Errorf("transaction mining workers=%d differs from sequential", w)
		}
		for run := 0; run < 2; run++ {
			if again := fingerprint(t, mineTx(t, db, cfgW)); again != got {
				t.Fatalf("transaction mining workers=%d nondeterministic across runs", w)
			}
		}
	}
}

package spidermine

import (
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/support"
	"repro/internal/txdb"
)

func gid1() (*graph.Graph, []*graph.Graph) {
	return gen.Synthetic(gen.GIDConfig(1, 42))
}

func TestResultInvariants(t *testing.T) {
	g, _ := gid1()
	cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7}
	res := mine(g, cfg)
	if len(res.Patterns) == 0 {
		t.Fatal("no patterns")
	}
	if len(res.Patterns) > cfg.K {
		t.Fatalf("more than K patterns: %d", len(res.Patterns))
	}
	for i, p := range res.Patterns {
		// sorted by size descending
		if i > 0 && p.Size() > res.Patterns[i-1].Size() {
			t.Fatal("patterns not size-sorted")
		}
		// diameter bound
		if d := p.G.Diameter(); d > cfg.Dmax {
			t.Fatalf("pattern %d diameter %d > Dmax", i, d)
		}
		// support
		if len(p.Emb) < cfg.MinSupport {
			t.Fatalf("pattern %d support %d < σ", i, len(p.Emb))
		}
		// connected
		if !p.G.IsConnected() {
			t.Fatalf("pattern %d disconnected", i)
		}
		// structural distinctness
		for j := 0; j < i; j++ {
			if p.G.N() == res.Patterns[j].G.N() && p.G.M() == res.Patterns[j].G.M() &&
				canon.Isomorphic(p.G, res.Patterns[j].G) {
				t.Fatalf("patterns %d and %d are isomorphic", i, j)
			}
		}
	}
}

func TestEmbeddingsAreRealSubgraphs(t *testing.T) {
	g, _ := gid1()
	res := mine(g, Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7})
	for pi, p := range res.Patterns {
		for ei, e := range p.Emb {
			if len(e) != p.NV() {
				t.Fatalf("pattern %d emb %d: length %d != %d", pi, ei, len(e), p.NV())
			}
			for v := 0; v < p.NV(); v++ {
				if g.Label(e[v]) != p.G.Label(graph.V(v)) {
					t.Fatalf("pattern %d emb %d: label mismatch at %d", pi, ei, v)
				}
			}
			for _, pe := range p.G.Edges() {
				if !g.HasEdge(e[pe.U], e[pe.W]) {
					t.Fatalf("pattern %d emb %d: host edge missing for %v", pi, ei, pe)
				}
			}
		}
	}
}

func TestDeterminismPerSeed(t *testing.T) {
	g, _ := gid1()
	cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 13}
	a := mine(g, cfg)
	b := mine(g, cfg)
	if len(a.Patterns) != len(b.Patterns) {
		t.Fatalf("nondeterministic: %d vs %d patterns", len(a.Patterns), len(b.Patterns))
	}
	for i := range a.Patterns {
		if a.Patterns[i].Size() != b.Patterns[i].Size() ||
			len(a.Patterns[i].Emb) != len(b.Patterns[i].Emb) {
			t.Fatalf("pattern %d differs between identical runs", i)
		}
	}
}

func TestRecoversInjectedPatterns(t *testing.T) {
	// The headline claim (Figures 4-8): SpiderMine recovers the large
	// injected patterns. At least one top pattern must be >= 25 vertices
	// (injected: 30).
	g, _ := gid1()
	res := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7})
	if len(res.Patterns) == 0 || res.Patterns[0].NV() < 25 {
		got := 0
		if len(res.Patterns) > 0 {
			got = res.Patterns[0].NV()
		}
		t.Fatalf("largest pattern %d vertices, want >= 25", got)
	}
}

func TestRestartsAccumulate(t *testing.T) {
	g, _ := gid1()
	r1 := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7, Restarts: 1})
	r3 := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7, Restarts: 3})
	if len(r3.Patterns) < len(r1.Patterns) {
		t.Fatalf("restarts lost patterns: %d vs %d", len(r3.Patterns), len(r1.Patterns))
	}
}

func TestSpiderSetPruningAblation(t *testing.T) {
	g, _ := gid1()
	on := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7})
	off := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7, DisableSpiderSetPruning: true})
	// Same final answer.
	if len(on.Patterns) != len(off.Patterns) {
		t.Fatalf("ablation changed result count: %d vs %d", len(on.Patterns), len(off.Patterns))
	}
	for i := range on.Patterns {
		if on.Patterns[i].Size() != off.Patterns[i].Size() {
			t.Fatal("ablation changed results")
		}
	}
	if off.Stats.IsoSkipped != 0 {
		t.Fatal("disabled pruning still skipped tests")
	}
}

func TestKeepUnmergedAblation(t *testing.T) {
	g, _ := gid1()
	res := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7, KeepUnmerged: true})
	if len(res.Patterns) == 0 {
		t.Fatal("keep-unmerged returned nothing")
	}
}

func TestHarmfulOverlapMeasureRuns(t *testing.T) {
	g, _ := gid1()
	res := mine(g, Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7, Measure: support.HarmfulOverlap})
	for _, p := range res.Patterns {
		if support.Of(p.G, p.Emb, support.HarmfulOverlap) < 2 {
			t.Fatal("measure not honored in output")
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	g := graph.FromEdges([]graph.Label{0, 0}, []graph.Edge{{U: 0, W: 1}})
	cfg := Config{}.withDefaults(g)
	if cfg.MinSupport != 2 || cfg.K != 10 || cfg.Dmax != 4 || cfg.Radius != 1 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Vmin != 1 {
		t.Fatalf("Vmin default %d", cfg.Vmin)
	}
}

func TestTinyGraphNoPanics(t *testing.T) {
	g := graph.FromEdges([]graph.Label{0, 0, 0}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	res := mine(g, Config{MinSupport: 2, K: 3, Dmax: 2, Seed: 1})
	_ = res // empty or not, must terminate cleanly
}

func TestEmptyGraph(t *testing.T) {
	b := graph.NewBuilder(0, 0)
	res := mine(b.Build(), Config{MinSupport: 2, K: 3, Dmax: 4, Seed: 1})
	if len(res.Patterns) != 0 {
		t.Fatal("patterns from empty graph")
	}
}

func TestTransactionSetting(t *testing.T) {
	db, larges := txdb.SyntheticTx(txdb.SyntheticTxConfig{
		NumGraphs: 8, N: 150, AvgDeg: 4, NumLabels: 50,
		Large: gen.InjectSpec{NV: 16, Count: 2, Support: 1},
		Seed:  21,
	})
	res := mineTx(t, db, Config{MinSupport: 6, K: 5, Dmax: 6, Seed: 21})
	if len(res.Patterns) == 0 {
		t.Fatal("transaction mining returned nothing")
	}
	// Transaction support must hold: every returned pattern occurs in >= 6
	// distinct graphs.
	_, txOf := db.Union()
	for _, p := range res.Patterns {
		if got := support.TransactionSupport(p.Emb, txOf); got < 6 {
			t.Fatalf("transaction support %d < 6", got)
		}
	}
	// Should find a substantial chunk of the injected 16-vertex patterns.
	if res.Patterns[0].NV() < 8 {
		t.Fatalf("largest tx pattern only %d vertices", res.Patterns[0].NV())
	}
	_ = larges
}

func TestStatsPopulated(t *testing.T) {
	g, _ := gid1()
	res := mine(g, Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7})
	s := res.Stats
	if s.NumSpiders == 0 || s.M == 0 || s.GrowIterations == 0 {
		t.Fatalf("stats not populated: %v", s)
	}
	if s.StageI <= 0 || s.StageII <= 0 {
		t.Fatalf("stage timings missing: %v", s)
	}
	if s.String() == "" {
		t.Fatal("stats stringer empty")
	}
}

func TestParallelGrowthIdenticalResults(t *testing.T) {
	g, _ := gid1()
	seq := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7})
	par := mine(g, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7, Workers: -1})
	if len(seq.Patterns) != len(par.Patterns) {
		t.Fatalf("parallel run differs: %d vs %d patterns", len(seq.Patterns), len(par.Patterns))
	}
	for i := range seq.Patterns {
		if seq.Patterns[i].Size() != par.Patterns[i].Size() ||
			seq.Patterns[i].NV() != par.Patterns[i].NV() ||
			len(seq.Patterns[i].Emb) != len(par.Patterns[i].Emb) {
			t.Fatalf("pattern %d differs between sequential and parallel runs", i)
		}
	}
}

func TestRadius2Seeds(t *testing.T) {
	// Radius-2 seeds: mining should still recover large patterns on GID 1
	// (more Stage I cost, same answer quality — Appendix C(3)).
	g, _ := gid1()
	if testing.Short() {
		t.Skip("short mode")
	}
	res := mine(g, Config{MinSupport: 2, K: 5, Dmax: 4, Seed: 7, Radius: 2, MaxSpiders: 6000})
	if len(res.Patterns) == 0 {
		t.Fatal("radius-2 mining returned nothing")
	}
	if res.Patterns[0].NV() < 10 {
		t.Fatalf("radius-2 largest pattern only %d vertices", res.Patterns[0].NV())
	}
}

// mine runs MineContext under a context that never fires.
func mine(g *graph.Graph, cfg Config) *Result {
	res, _ := MineContext(context.Background(), g, cfg)
	return res
}

// TestStageIIEndsAtFixedPoint: Stage II stops after the first iteration
// that grows no pattern and accepts no merge, since every later iteration
// would repeat it, and runs every other iteration up to ⌈Dmax/2r⌉. So
// raising Dmax past the point where the patterns stop changing changes
// neither the patterns nor the iterations run, and a Dmax of 2^31−1
// returns the same patterns promptly instead of running ⌈Dmax/2⌉ idle
// iterations. An iteration is idle when every pattern is done as its
// merge round starts and the round accepts no merge.
func TestStageIIEndsAtFixedPoint(t *testing.T) {
	for _, gid := range []int{1, 2} {
		g, _ := gen.Synthetic(gen.GIDConfig(gid, 1))
		var want *Result
		for _, dmax := range []int{40, 400, math.MaxInt32} {
			type iteration struct {
				restart int
				idle    bool
			}
			var (
				its          []iteration
				allDone      bool
				mergesBefore int
			)
			cfg := Config{MinSupport: 2, K: 10, Seed: 1, Dmax: dmax}
			cfg.OnProgress = func(ev StageEvent) {
				if ev.Stage == StageGrowth {
					its = append(its, iteration{ev.Restart, allDone && ev.Merges == mergesBefore})
				}
			}
			m := New(g, cfg)
			m.roundSeen = func(ws []*grown) {
				allDone, mergesBefore = true, m.stats.Merges
				for _, w := range ws {
					allDone = allDone && w.done
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			res, err := m.RunContext(ctx)
			cancel()
			if err != nil {
				t.Fatalf("GID-%d Dmax %d: %v", gid, dmax, err)
			}
			iters := (dmax + 1) / 2
			for k, it := range its {
				last := k+1 == len(its) || its[k+1].restart != it.restart
				n := 1 // the iteration's number within its restart
				for j := k - 1; j >= 0 && its[j].restart == it.restart; j-- {
					n++
				}
				if last != (it.idle || n == iters) {
					t.Fatalf("GID-%d Dmax %d restart %d: Stage II iteration %d (idle %v) is last %v", gid, dmax, it.restart, n, it.idle, last)
				}
			}
			if want == nil {
				want = res
				t.Logf("GID-%d: %d grow iterations at Dmax %d", gid, res.Stats.GrowIterations, dmax)
				continue
			}
			if fingerprint(t, res) != fingerprint(t, want) {
				t.Fatalf("GID-%d: Dmax %d mines other patterns than Dmax 40", gid, dmax)
			}
			if res.Stats.GrowIterations != want.Stats.GrowIterations {
				t.Fatalf("GID-%d: Dmax %d runs %d grow iterations, Dmax 40 %d", gid, dmax, res.Stats.GrowIterations, want.Stats.GrowIterations)
			}
		}
	}
}

// TestStageIIManyIterationsPinned pins mines whose Stage II runs every one
// of its ⌈Dmax/2⌉ grow+merge iterations: the Table 1 hosts GID-1 and GID-2
// (host seed 1) at Dmax 6 and 8, seed 1. Each digest is the SHA-256 of
// the result's patterns as JSON (graphs, embeddings and growth state),
// recorded when the cases were added. TestStageIIEndsAtFixedPoint checks
// where Stage II stops; this test fails if Stage II stops early, for
// example after its first iteration, which changes every digest here.
func TestStageIIManyIterationsPinned(t *testing.T) {
	for _, c := range []struct {
		gid, dmax, stageII int
		digest             string
	}{
		{1, 6, 3, "04c4184df2c08f4672c45bde78115ef4a6a85fc4141a3d408737f82b7af1793c"},
		{1, 8, 4, "3abcc7756004e4a0642af6f842ae4ddcfb97ceb0859b1b3bd7d8f7fa68950efd"},
		{2, 6, 3, "6f4ee6405e6cabce6fdff87bf370b83c0e9a24b4abecf3af014027b0376dab73"},
		{2, 8, 4, "add465490f026016b5fa764f5385e816015dbc1630442bdef39b0e076e117526"},
	} {
		g, _ := gen.Synthetic(gen.GIDConfig(c.gid, 1))
		stageII := 0
		cfg := Config{MinSupport: 2, K: 10, Dmax: c.dmax, Seed: 1}
		cfg.OnProgress = func(ev StageEvent) {
			if ev.Stage == StageGrowth {
				stageII++
			}
		}
		res := mine(g, cfg)
		if stageII != c.stageII {
			t.Errorf("GID-%d Dmax %d: Stage II ran %d iterations, want %d", c.gid, c.dmax, stageII, c.stageII)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(fingerprint(t, res)))); got != c.digest {
			t.Errorf("GID-%d Dmax %d: result digest %s, want %s", c.gid, c.dmax, got, c.digest)
		}
	}
}

package repro_test

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Each benchmark
// regenerates its artifact through the same driver `spiderbench` uses, at
// reduced (Quick) scale so `go test -bench=.` completes in minutes; run
// `go run ./cmd/spiderbench -all` for the full-scale tables.
//
// The benchmark *output* is the interesting part: the time per op is the
// end-to-end cost of regenerating the artifact; the rendered rows land in
// the -v log.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spider"
	"repro/internal/spidermine"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	params := experiments.Params{Seed: 1, Quick: true}
	for i := 0; i < b.N; i++ {
		rep, err := experiments.RunContext(context.Background(), id, params)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && testing.Verbose() {
			rep.Render(testWriter{b})
		} else {
			rep.Render(io.Discard)
		}
	}
}

type testWriter struct{ b *testing.B }

func (w testWriter) Write(p []byte) (int, error) {
	w.b.Log(string(p))
	return len(p), nil
}

// BenchmarkTable1DataGen regenerates the five Table 1 datasets.
func BenchmarkTable1DataGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for gid := 1; gid <= 5; gid++ {
			g, _ := gen.Synthetic(gen.GIDConfig(gid, 1))
			if g.N() == 0 {
				b.Fatal("empty graph")
			}
		}
	}
}

// BenchmarkFig4to8Distributions regenerates the Figures 4–8 pattern-size
// histograms (GID 1 as representative; the full sweep runs via
// spiderbench).
func BenchmarkFig4to8Distributions(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig9RuntimeVsMoss regenerates Figure 9 (SpiderMine vs MoSS).
func BenchmarkFig9RuntimeVsMoss(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10RuntimeVsSubdue regenerates Figure 10.
func BenchmarkFig10RuntimeVsSubdue(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11Scalability regenerates Figure 11 (and 12).
func BenchmarkFig11Scalability(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12LargestPattern is Figure 12 (same sweep as Figure 11).
func BenchmarkFig12LargestPattern(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13PowerLaw regenerates Figure 13 (and 17).
func BenchmarkFig13PowerLaw(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14TxFewerSmall regenerates Figure 14.
func BenchmarkFig14TxFewerSmall(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15TxMoreSmall regenerates Figure 15.
func BenchmarkFig15TxMoreSmall(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16RuntimeTable regenerates the Figure 16 runtime table.
func BenchmarkFig16RuntimeTable(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17ScaleFreeSpiders is Figure 17 (same sweep as Figure 13).
func BenchmarkFig17ScaleFreeSpiders(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkFig18Robustness regenerates Figure 18 / Table 3 (GID 6–10).
func BenchmarkFig18Robustness(b *testing.B) { benchExperiment(b, "fig18") }

// BenchmarkFig19VariedDmax regenerates Figure 19.
func BenchmarkFig19VariedDmax(b *testing.B) { benchExperiment(b, "fig19") }

// BenchmarkFig20DBLP regenerates Figure 20 on the DBLP-like network.
func BenchmarkFig20DBLP(b *testing.B) { benchExperiment(b, "fig20") }

// BenchmarkFig21Jeti regenerates Figure 21 on the Jeti-like call graph.
func BenchmarkFig21Jeti(b *testing.B) { benchExperiment(b, "fig21") }

// BenchmarkAppC3VariedR regenerates the Appendix C(3) varied-r study.
func BenchmarkAppC3VariedR(b *testing.B) { benchExperiment(b, "appC3") }

// BenchmarkAppC4VariedEpsilon regenerates the Appendix C(4) varied-ε study.
func BenchmarkAppC4VariedEpsilon(b *testing.B) { benchExperiment(b, "appC4") }

// BenchmarkAblations times the DESIGN.md ablation suite.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// --- micro-benchmarks of the core stages, for profiling ---

// BenchmarkStageISpiderMining isolates Stage I on the GID-1 dataset.
func BenchmarkStageISpiderMining(b *testing.B) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stars := mineStars(g, spider.Options{MinSupport: 2})
		if stars.Len() == 0 {
			b.Fatal("no spiders")
		}
	}
}

// BenchmarkFullPipelineGID1 times one complete SpiderMine run on GID 1.
func BenchmarkFullPipelineGID1(b *testing.B) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mineGraph(g, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: int64(i)})
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkFullPipelineParallel times the complete SpiderMine run on GID 1
// at fixed worker counts and reports each sub-benchmark's wall-clock
// speedup over the sequential engine (measured in-process as the
// baseline). The parallel engine is deterministic, so every sub-benchmark
// computes the identical result; only the sharding changes. On a
// single-core host the metric hovers around 1.0 — the interesting read is
// on multicore hardware, where Stages I–III all shard.
func BenchmarkFullPipelineParallel(b *testing.B) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	cfg := spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}
	const baseRuns = 3
	t0 := time.Now()
	for i := 0; i < baseRuns; i++ {
		if res := mineGraph(g, cfg); len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
	seqPerOp := time.Since(t0) / baseRuns
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfgW := cfg
			cfgW.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := mineGraph(g, cfgW); len(res.Patterns) == 0 {
					b.Fatal("no patterns")
				}
			}
			b.ReportMetric(float64(seqPerOp)/(float64(b.Elapsed())/float64(b.N)), "speedup")
		})
	}
}

// BenchmarkFullPipelineMapped is BenchmarkFullPipelineGID1 with the
// host opened from an mmap'd SPC1 image instead of RAM — the
// mapped-vs-RAM delta of the full pipeline (README §Out-of-core). The
// open happens once outside the loop, mirroring the RAM benchmark's
// one-time Build.
func BenchmarkFullPipelineMapped(b *testing.B) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	path := filepath.Join(b.TempDir(), "gid1.spc1")
	if err := graph.WriteImageFile(g, path); err != nil {
		b.Fatal(err)
	}
	m, err := graph.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	mg := m.Graph()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := mineGraph(mg, spidermine.Config{MinSupport: 2, K: 10, Dmax: 4, Seed: int64(i)})
		if len(res.Patterns) == 0 {
			b.Fatal("no patterns")
		}
	}
}

// BenchmarkStageIOutOfCoreBA1M runs Stage I over a million-edge
// scale-free host opened by mmap — the out-of-core data point (run with
// -benchtime=1x; generation dominates setup). BENCH_PR10.json keeps its
// historical figure; the baseline to compare against is
// `bash bench/run.sh` (its restart-1m workload holds a 1.08M-edge host).
func BenchmarkStageIOutOfCoreBA1M(b *testing.B) {
	g := gen.BarabasiAlbert(126000, 8, 50, rand.New(rand.NewSource(1)))
	path := filepath.Join(b.TempDir(), "ba1m.spc1")
	if err := graph.WriteImageFile(g, path); err != nil {
		b.Fatal(err)
	}
	g = nil
	m, err := graph.OpenMapped(path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	mg := m.Graph()
	if mg.M() < 1_000_000 {
		b.Fatalf("host has %d edges, want >= 1e6", mg.M())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stars := mineStars(mg, spider.Options{MinSupport: 2, MaxLeaves: 2, MaxSpiders: 20000})
		if stars.Len() == 0 {
			b.Fatal("no stars")
		}
	}
}

// BenchmarkComputeM times the Lemma 2 seed-size computation.
func BenchmarkComputeM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if m := spider.ComputeM(10000, 1000, 10, 0.1); m < 2 {
			b.Fatal("bad M")
		}
	}
}

// BenchmarkScaleFree10k times a full run on a 10k-vertex BA graph — the
// Figure 11-style scalability point kept cheap enough for -bench=.
func BenchmarkScaleFree10k(b *testing.B) {
	n, el := experiments.SpiderCountOnly(context.Background(), 10000, 1)
	b.Logf("10k BA graph: %d spiders mined in %v", n, el)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, _ := experiments.SpiderCountOnly(context.Background(), 10000, int64(i))
		if n == 0 {
			b.Fatal("no spiders")
		}
	}
	_ = time.Now
}

// mineGraph runs spidermine.MineContext under a context that never fires.
func mineGraph(g *graph.Graph, cfg spidermine.Config) *spidermine.Result {
	res, _ := spidermine.MineContext(context.Background(), g, cfg)
	return res
}

// mineStars runs spider.MineStarsContext under a context that never fires.
func mineStars(g *graph.Graph, opt spider.Options) *spider.Stars {
	stars, _ := spider.MineStarsContext(context.Background(), g, opt)
	return stars
}

package spider

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/gen"
)

func BenchmarkMineStarsER(b *testing.B) {
	g := gen.ErdosRenyi(2000, 4, 50, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stars := mineStars(g, Options{MinSupport: 2}); stars.Len() == 0 {
			b.Fatal("no stars")
		}
	}
}

func BenchmarkMineStarsScaleFree(b *testing.B) {
	g := gen.BarabasiAlbert(2000, 2, 50, rand.New(rand.NewSource(2)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stars := mineStars(g, Options{MinSupport: 2, MaxLeaves: 8}); stars.Len() == 0 {
			b.Fatal("no stars")
		}
	}
}

func BenchmarkMineTreesR2(b *testing.B) {
	g := gen.ErdosRenyi(200, 3, 10, rand.New(rand.NewSource(3)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mineTrees(g, TreeOptions{MinSupport: 2, Radius: 2, MaxFanout: 2, MaxSpiders: 100_000})
	}
}

func BenchmarkRandomSeed(b *testing.B) {
	g := gen.ErdosRenyi(2000, 4, 50, rand.New(rand.NewSource(4)))
	stars := mineStars(g, Options{MinSupport: 2})
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sd Seeder
		if _, err := sd.Draw(context.Background(), g, stars, 86, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStarMinerWarm measures a reused StarMiner re-mining the GID-1
// host: the steady-state Stage I cost inside a multi-run Miner. Warm runs
// must report 0 allocs/op (pinned by TestStarMinerWarmNoAlloc).
func BenchmarkStarMinerWarm(b *testing.B) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	var sm StarMiner
	if _, err := sm.Mine(context.Background(), g, Options{MinSupport: 2}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.Mine(context.Background(), g, Options{MinSupport: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

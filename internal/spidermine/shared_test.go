package spidermine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spider"
)

// reuseCase is one host of the Stage I reuse differential. host builds a
// fresh host object on every call, so the first mine of each runs Stage I
// cold.
type reuseCase struct {
	name string
	host func() *graph.Graph
	cfg  Config
}

func reuseCases() []reuseCase {
	gid := func(n int, seed int64) func() *graph.Graph {
		return func() *graph.Graph {
			g, _ := gen.Synthetic(gen.GIDConfig(n, seed))
			return g
		}
	}
	return []reuseCase{
		{"gid1", gid(1, 42), Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3}},
		{"gid2", gid(2, 7), Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 5}},
		{"ba1000", func() *graph.Graph { return baHost(1000) }, baRecipe},
		{"serve100", func() *graph.Graph { return serveHost(100) }, serveRecipe},
		{"negative", func() *graph.Graph { return shiftLabels(gid(1, 1)(), -1000) }, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}},
	}
}

// runMiner mines g with cfg on a fresh Miner and returns the Miner, so a
// test can see which Stage I table the run read.
func runMiner(t *testing.T, g *graph.Graph, cfg Config) (*Miner, *Result) {
	t.Helper()
	m := New(g, cfg)
	res, err := m.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// sameMine fails t unless got equals want byte for byte: patterns,
// embeddings and every Stats counter but the stage durations.
func sameMine(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if fingerprint(t, got) != fingerprint(t, want) {
		t.Errorf("%s: patterns differ from the cold mine's", what)
	}
	if g, w := workStats(got.Stats), workStats(want.Stats); g != w {
		t.Errorf("%s: stats %v, the cold mine's %v", what, g, w)
	}
}

// TestSharedStarsEqualCold: a mine that reads the Stage I table of an
// earlier mine of the same host object equals the mine that built it
// cold, at one and two workers, on the Table 1 hosts, the BA recipe's
// caps, a serve-mixed host and a host with negative labels.
func TestSharedStarsEqualCold(t *testing.T) {
	for _, c := range reuseCases() {
		for _, workers := range []int{1, 2} {
			cfg := c.cfg
			cfg.Workers = workers
			what := fmt.Sprintf("%s workers=%d", c.name, workers)
			g := c.host()
			cold, want := runMiner(t, g, cfg)
			warm, got := runMiner(t, g, cfg)
			if warm.stars != cold.stars {
				t.Fatalf("%s: the second mine did not reuse the live table", what)
			}
			sameMine(t, what, got, want)
		}
	}
}

// TestSharedStarsKeyedByOptions: on one host object, mines whose Stage I
// options differ (σ, the leaf cap, the spider cap) each get their own
// table and equal their own cold mine; Stages II–III options share one.
func TestSharedStarsKeyedByOptions(t *testing.T) {
	host := func() *graph.Graph {
		g, _ := gen.Synthetic(gen.GIDConfig(1, 42))
		return g
	}
	base := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 3}
	variants := []Config{base, base, base, base, base}
	variants[1].MinSupport = 3
	variants[2].MaxLeavesPerStar = 3
	variants[3].MaxSpiders = 200
	variants[4].K, variants[4].Dmax, variants[4].Seed = 5, 6, 9
	g := host()
	var tables []*spider.Stars
	for i, cfg := range variants {
		m, got := runMiner(t, g, cfg)
		_, want := runMiner(t, host(), cfg)
		sameMine(t, fmt.Sprintf("variant %d", i), got, want)
		tables = append(tables, m.stars)
	}
	for i := 1; i < 4; i++ {
		for j := range i {
			if tables[i] == tables[j] {
				t.Errorf("variants %d and %d differ in Stage I options but read one table", j, i)
			}
		}
	}
	if tables[4] != tables[0] {
		t.Error("a mine differing only in Stages II–III options did not reuse the live table")
	}
}

// TestSharedStarsConcurrent: concurrent mines of one host read one
// shared table; half of them run at two workers. First eight mines miss
// at once and race to record their tables, then eight more read the live
// table. Every result equals the cold one. CI runs it under -race
// -count=10.
func TestSharedStarsConcurrent(t *testing.T) {
	cfg := serveRecipe
	_, want := runMiner(t, serveHost(100), cfg)
	g := serveHost(100)
	var held *spider.Stars
	for round := range 2 {
		var wg sync.WaitGroup
		miners := make([]*Miner, 8)
		results := make([]*Result, 8)
		errs := make([]error, 8)
		for i := range miners {
			c := cfg
			c.Workers = 1 + i%2
			miners[i] = New(g, c)
			wg.Add(1)
			go func() {
				defer wg.Done()
				results[i], errs[i] = miners[i].RunContext(context.Background())
			}()
		}
		wg.Wait()
		for i, res := range results {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			sameMine(t, fmt.Sprintf("round %d mine %d", round, i), res, want)
			if held != nil && miners[i].stars != held {
				t.Errorf("round %d mine %d did not read the live table", round, i)
			}
		}
		// The table recorded last is the one later mines read.
		m, _ := runMiner(t, g, cfg)
		held = m.stars
	}
}

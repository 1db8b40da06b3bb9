package spidermine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
	"repro/internal/spider"
)

// stagedMiner returns a Miner for g and cfg with Stage I done and indexed,
// ready for runOnce, and the seed draw size M.
func stagedMiner(tb testing.TB, g *graph.Graph, cfg Config) (*Miner, int) {
	tb.Helper()
	m := New(g, cfg)
	m.ctx, m.start = context.Background(), time.Now()
	stars, err := spider.MineStarsContext(m.ctx, g, spider.Options{
		MinSupport: m.cfg.MinSupport,
		MaxLeaves:  m.cfg.MaxLeavesPerStar,
		Radius:     1,
		MaxSpiders: m.cfg.MaxSpiders,
	})
	if err != nil {
		tb.Fatal(err)
	}
	m.indexStars(stars)
	return m, spider.ComputeM(g.N(), m.cfg.Vmin, m.cfg.K, m.cfg.Epsilon)
}

// drawSeeds is Stage II's seed draw of M stars on a staged Miner, at one
// worker.
func drawSeeds(tb testing.TB, m *Miner, M int) []*pattern.Pattern {
	tb.Helper()
	seeds, err := m.sd.Draw(context.Background(), m.g, m.stars, M, m.rng)
	if err != nil {
		tb.Fatal(err)
	}
	return seeds
}

// baRecipe is the BA recipe's mining configuration (σ=3, K=3, Dmax=4, 6
// leaves per star, the spider cap), seed 1.
var baRecipe = Config{MinSupport: 3, K: 3, Dmax: 4, MaxLeavesPerStar: 6, MaxSpiders: 500000, Seed: 1}

// baHost is BarabasiAlbert(n, 2, 50) on host seed 1.
func baHost(n int) *graph.Graph {
	return gen.BarabasiAlbert(n, 2, 50, rand.New(rand.NewSource(1)))
}

type stageCase struct {
	name string
	g    *graph.Graph
	cfg  Config
}

// stageCases are the GID-1 and BA working sets the growth and selection
// tests run the real Stages II and III on.
func stageCases() []stageCase {
	gid, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	baN := 2000
	if testing.Short() {
		baN = 500
	}
	return []stageCase{
		{"gid1", gid, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}},
		{"gid1-dmax6", gid, Config{MinSupport: 2, K: 10, Dmax: 6, Seed: 2}},
		{"ba", baHost(baN), baRecipe},
	}
}

// shiftLabels returns g with every label moved by d.
func shiftLabels(g *graph.Graph, d graph.Label) *graph.Graph {
	labels := make([]graph.Label, g.N())
	for v := range labels {
		labels[v] = g.Label(graph.V(v)) + d
	}
	return graph.FromEdges(labels, g.Edges())
}

// TestLabelShiftInvariance: labels are arbitrary int32s, negative ones
// included, and mining only ever compares them. So mining a host whose
// labels are all moved by one constant finds the same patterns, with the
// same embeddings, IDs and order, up to that move. It once failed for
// negative labels: Stage I took -1 for "no label yet", and growth stopped
// at its first negative label.
func TestLabelShiftInvariance(t *testing.T) {
	g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	cfg := Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}
	want := fingerprint(t, mine(g, cfg))
	for _, d := range []graph.Label{-1000, -1} {
		sg := shiftLabels(g, d)
		for _, workers := range []int{1, 2} {
			c := cfg
			c.Workers = workers
			res := mine(sg, c)
			back := &Result{}
			var sizes []int
			for _, p := range res.Patterns {
				back.Patterns = append(back.Patterns, &pattern.Pattern{
					ID: p.ID, G: shiftLabels(p.G, -d), Emb: p.Emb, Origin: p.Origin, Merged: p.Merged,
				})
				sizes = append(sizes, p.Size())
			}
			if got := fingerprint(t, back); got != want {
				t.Errorf("shift %d workers=%d: result differs from the unshifted host's (top sizes %v)", d, workers, sizes)
			}
		}
	}
}

// chooseLeavesReference is the label-keyed greedy chooseLeaves replaced,
// kept as the oracle: chosen and per-round counts are (label, count) lists
// scanned linearly (countOf / incrCount), and the best label is found with
// a first-iteration flag rather than a -1 sentinel. groups[ei] lists
// embedding ei's (label, available vertices) pairs.
func chooseLeavesReference(groups [][]refGroup, sigma int) (map[graph.Label]int, []int32) {
	type labCount struct {
		label graph.Label
		n     int
	}
	countOf := func(lcs []labCount, l graph.Label) int {
		for i := range lcs {
			if lcs[i].label == l {
				return lcs[i].n
			}
		}
		return 0
	}
	incrCount := func(lcs []labCount, l graph.Label) []labCount {
		for i := range lcs {
			if lcs[i].label == l {
				lcs[i].n++
				return lcs
			}
		}
		return append(lcs, labCount{l, 1})
	}
	avail := func(ei int32, l graph.Label) int {
		for _, g := range groups[ei] {
			if g.label == l {
				return g.n
			}
		}
		return 0
	}
	var chosen []labCount
	var surv []int32
	for i := range groups {
		surv = append(surv, int32(i))
	}
	for {
		var counts []labCount
		for _, ei := range surv {
			for _, g := range groups[ei] {
				if g.n > countOf(chosen, g.label) {
					counts = incrCount(counts, g.label)
				}
			}
		}
		found, best, bestCount := false, graph.Label(0), 0
		for _, c := range counts {
			if !found || c.n > bestCount || (c.n == bestCount && c.label < best) {
				found, best, bestCount = true, c.label, c.n
			}
		}
		if !found {
			break
		}
		var keep []int32
		for _, ei := range surv {
			if avail(ei, best) > countOf(chosen, best) {
				keep = append(keep, ei)
			}
		}
		if len(keep) < sigma {
			break
		}
		chosen = incrCount(chosen, best)
		surv = keep
	}
	out := map[graph.Label]int{}
	for _, c := range chosen {
		out[c.label] = c.n
	}
	return out, surv
}

type refGroup struct {
	label graph.Label
	n     int
}

// TestChooseLeavesMatchesReference runs the run-position tally and the
// label-keyed reference greedy on random availability tables, with labels
// drawn across all of int32, and compares the chosen leaf multisets and
// the surviving embeddings.
func TestChooseLeavesMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := growHost()
	trials := 3000
	if testing.Short() {
		trials = 500
	}
	for trial := 0; trial < trials; trial++ {
		nRun := 1 + rng.Intn(12)
		labelSet := map[graph.Label]bool{}
		for len(labelSet) < nRun {
			var l graph.Label
			switch rng.Intn(4) {
			case 0:
				l = graph.Label(rng.Intn(7) - 3)
			case 1:
				l = graph.Label(rng.Int63n(1<<32) - 1<<31)
			case 2:
				l = graph.Label(math.MinInt32 + rng.Intn(3))
			default:
				l = graph.Label(math.MaxInt32 - rng.Intn(3))
			}
			labelSet[l] = true
		}
		run := make([]labelPair, 0, nRun)
		for l := range labelSet {
			run = append(run, labelPair{h: 9, l: l})
		}
		slices.SortFunc(run, cmpLabelPair)

		sigma := 1 + rng.Intn(4)
		m := minerFor(g, Config{MinSupport: sigma, Dmax: 4})
		sc := new(growScratch)
		nEmb := 1 + rng.Intn(30)
		p := pattern.New(g, make([]pattern.Embedding, nEmb))
		refGroups := make([][]refGroup, nEmb)
		sc.gOff = make([]int32, nEmb+1)
		density := rng.Float64()
		for ei := 0; ei < nEmb; ei++ {
			sc.gOff[ei] = int32(len(sc.groups))
			for idx := range run {
				if rng.Float64() > density {
					continue
				}
				n := 1 + rng.Intn(4)
				lo := int32(len(sc.vbuf))
				for k := 0; k < n; k++ {
					sc.vbuf = append(sc.vbuf, graph.V(k))
				}
				sc.groups = append(sc.groups, labRange{idx: int32(idx), lo: lo, hi: int32(len(sc.vbuf))})
				refGroups[ei] = append(refGroups[ei], refGroup{label: run[idx].l, n: n})
			}
		}
		sc.gOff[nEmb] = int32(len(sc.groups))

		total := m.chooseLeaves(p, len(run), sc)
		wantChosen, wantSurv := chooseLeavesReference(refGroups, sigma)
		got := map[graph.Label]int{}
		sum := 0
		for i, n := range sc.chosen {
			if n > 0 {
				got[run[i].l] = int(n)
				sum += int(n)
			}
		}
		if sum != total {
			t.Fatalf("trial %d: chooseLeaves returned %d leaves, chosen holds %d", trial, total, sum)
		}
		if fmt.Sprint(got) != fmt.Sprint(wantChosen) || !slices.Equal(sc.surv, wantSurv) {
			t.Fatalf("trial %d (σ=%d, run %v): chose %v surviving %v, reference %v surviving %v",
				trial, sigma, run, got, sc.surv, wantChosen, wantSurv)
		}
	}
}

// TestEccGuardMatchesBFS runs the real Stages II and III on GID and BA
// working sets, at 1 and 2 workers, and checks every eccentricity-guard
// decision against a plain Eccentricity BFS on the graph the guard saw.
// The lower bounds must decide a share of the rejections on their own,
// or the test would not be testing them.
func TestEccGuardMatchesBFS(t *testing.T) {
	for _, tc := range stageCases() {
		for _, workers := range []int{1, 2} {
			cfg := tc.cfg
			cfg.Workers = workers
			m, M := stagedMiner(t, tc.g, cfg)
			var decisions, byBound, wrong atomic.Int64
			for _, sc := range m.growWS.For(max(workers, 1)) {
				sc.guardSeen = func(g *graph.Graph, b graph.V, reject, bound bool) {
					decisions.Add(1)
					if bound {
						byBound.Add(1)
					}
					if want := g.Eccentricity(b)+1 > cfg.Dmax; reject != want && wrong.Add(1) == 1 {
						t.Errorf("%s workers=%d: guard at vertex %d of a %d-vertex pattern rejected=%v (by bound %v), BFS says %v",
							tc.name, workers, b, g.N(), reject, bound, want)
					}
				}
			}
			if _, err := m.runOnce(0, M); err != nil {
				t.Fatal(err)
			}
			t.Logf("%s workers=%d: %d guard decisions, %d by bound", tc.name, workers, decisions.Load(), byBound.Load())
			if wrong.Load() > 0 {
				t.Fatalf("%s workers=%d: %d of %d guard decisions differ from BFS", tc.name, workers, wrong.Load(), decisions.Load())
			}
			if byBound.Load() == 0 {
				t.Errorf("%s workers=%d: no guard decision came from the bounds", tc.name, workers)
			}
		}
	}
}

// TestSelectedPatternsConnected pins what lets selection filter by
// DiameterAtMost: every pattern that reaches selectPatterns is connected,
// so DiameterAtMost(d) equals Diameter() <= d on it. runOnce's output is
// exactly what RunContext hands to selection.
func TestSelectedPatternsConnected(t *testing.T) {
	for _, tc := range stageCases() {
		for _, workers := range []int{1, 2} {
			cfg := tc.cfg
			cfg.Workers = workers
			m, M := stagedMiner(t, tc.g, cfg)
			ps, err := m.runOnce(0, M)
			if err != nil {
				t.Fatal(err)
			}
			if len(ps) == 0 {
				t.Fatalf("%s workers=%d: no patterns reach selection", tc.name, workers)
			}
			for _, p := range ps {
				if !p.G.IsConnected() {
					t.Fatalf("%s workers=%d: pattern %d (%d vertices) reaching selection is disconnected", tc.name, workers, p.ID, p.NV())
				}
				diam := p.G.Diameter()
				for d := diam - 1; d <= diam+1; d++ {
					if got := m.selBFS.DiameterAtMost(p.G, d); got != (diam <= d) {
						t.Fatalf("%s workers=%d: pattern %d: DiameterAtMost(%d) = %v, diameter %d", tc.name, workers, p.ID, d, got, diam)
					}
				}
			}
		}
	}
}

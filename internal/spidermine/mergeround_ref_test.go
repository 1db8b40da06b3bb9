package spidermine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// mergeGroupsReference is the map-based candidate scan mergeGroups
// replaced, kept as its oracle: a per-host-vertex usage list, a Go map
// deduping candidates and a per-pair counter applying mergePairCap in
// discovery order (touched-vertex order, then slot order). It returns the
// candidates sorted by (a, b, ea, eb) and their groups, each marked cut
// when the cap dropped one of its distinct candidates.
func mergeGroupsReference(g *graph.Graph, ws []*grown) ([]mergeCand, []pairGroup) {
	usage := make([][]usageSlot, g.N())
	var touched []graph.V
	for wi, w := range ws {
		for ei, e := range scanned(w.p) {
			for _, hv := range e {
				if len(usage[hv]) == 0 {
					touched = append(touched, hv)
				}
				usage[hv] = append(usage[hv], usageSlot{int32(wi), int32(ei)})
			}
		}
	}
	seen := make(map[mergeCand]bool)
	count := make(map[pairKey]int)
	cut := make(map[pairKey]bool)
	var cands []mergeCand
	for _, hv := range touched {
		slots := usage[hv]
		for i := 0; i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				a, b := slots[i], slots[j]
				if a.w == b.w {
					continue
				}
				if a.w > b.w {
					a, b = b, a
				}
				c := mergeCand{a: a.w, b: b.w, ea: a.emb, eb: b.emb}
				if seen[c] {
					continue
				}
				pk := pairKey{int(a.w), int(b.w)}
				if count[pk] >= mergePairCap {
					cut[pk] = true
					continue
				}
				seen[c] = true
				count[pk]++
				cands = append(cands, c)
			}
		}
	}
	slices.SortFunc(cands, cmpMergeCand)
	var groups []pairGroup
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j].a == cands[i].a && cands[j].b == cands[i].b {
			j++
		}
		pk := pairKey{int(cands[i].a), int(cands[i].b)}
		groups = append(groups, pairGroup{pk: pk, lo: int32(i), hi: int32(j), cut: cut[pk]})
		i = j
	}
	return cands, groups
}

// serveHost is the serve-mixed workload's base host of that seed (§5.1
// synthetic: 300 vertices, average degree 4, 12 labels, injected
// patterns), and serveRecipe the job it mines there (σ=3, K=5, the
// serving surface's default spider cap, one worker).
func serveHost(seed int64) *graph.Graph {
	g, _ := gen.Synthetic(gen.SyntheticConfig{
		N: 300, AvgDeg: 4, NumLabels: 12,
		Large: gen.InjectSpec{NV: 10, Count: 2, Support: 6},
		Small: gen.InjectSpec{NV: 4, Count: 6, Support: 6},
		Seed:  seed,
	})
	return g
}

var serveRecipe = Config{MinSupport: 3, K: 5, MaxSpiders: 500000, Seed: 1001}

// capHost is the scale-free host whose merge rounds hit mergePairCap:
// TestMappedEqualsBuilt's BarabasiAlbert(3000, 4, 30), mined at σ=2,
// Dmax=2.
func capHost() *graph.Graph {
	return gen.BarabasiAlbert(3000, 4, 30, rand.New(rand.NewSource(11)))
}

var capRecipe = Config{MinSupport: 2, K: 3, Dmax: 2, MaxLeavesPerStar: 6, MaxSpiders: 20000}

// roundCases are the mines whose every merge round the merge-round
// oracles check: GID-1, GID-2, the BA recipe on baHost(2000) (500 under
// -short), and a serve-mixed host.
func roundCases() []stageCase {
	gid1, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	gid2, _ := gen.Synthetic(gen.GIDConfig(2, 7))
	baN := 2000
	if testing.Short() {
		baN = 500
	}
	return []stageCase{
		{"gid1", gid1, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1}},
		{"gid2", gid2, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 7}},
		{"ba", baHost(baN), baRecipe},
		{"serve100", serveHost(100), serveRecipe},
	}
}

// eachRound mines g under cfg and hands every working set checkMerges
// receives to fn, before the round runs; fn may use the Miner's round
// scratch, which the round then rebuilds.
func eachRound(t *testing.T, g *graph.Graph, cfg Config, fn func(m *Miner, ws []*grown)) {
	t.Helper()
	m := New(g, cfg)
	m.roundSeen = func(ws []*grown) { fn(m, ws) }
	if _, err := m.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestMergeScanMatchesReference: in every merge round of the round cases'
// mines, and of the cap-binding host's (seeds 1 and 2), mergeGroups finds
// exactly the reference scan's candidates, in its order, with the same
// groups and the same cut flags: the cap keeps the first mergePairCap
// distinct candidates in discovery order, not in sorted order.
func TestMergeScanMatchesReference(t *testing.T) {
	cases := roundCases()
	for _, seed := range []int64{1, 2} {
		cfg := capRecipe
		cfg.Seed = seed
		cases = append(cases, stageCase{fmt.Sprintf("cap/seed=%d", seed), capHost(), cfg})
	}
	capped := 0
	for _, tc := range cases {
		rounds := 0
		eachRound(t, tc.g, tc.cfg, func(m *Miner, ws []*grown) {
			rounds++
			groups, err := m.mergeGroups(ws)
			if err != nil {
				t.Fatal(err)
			}
			wantCands, wantGroups := mergeGroupsReference(m.g, ws)
			if !slices.Equal(m.mergeCands, wantCands) {
				t.Fatalf("%s round %d: %d candidates, the reference %d, or other ones", tc.name, rounds, len(m.mergeCands), len(wantCands))
			}
			if !slices.Equal(groups, wantGroups) {
				t.Fatalf("%s round %d: groups differ from the reference's", tc.name, rounds)
			}
			for _, gp := range groups {
				if gp.cut {
					capped++
				}
			}
		})
		if rounds == 0 {
			t.Fatalf("%s: no merge round ran", tc.name)
		}
	}
	if capped == 0 {
		t.Fatal("no group hit mergePairCap: the cap's discovery order went unchecked")
	}
	t.Logf("%d capped groups", capped)
}

// TestMergeScanCapKeepsDiscoveryOrder: a pattern pair with more than
// mergePairCap candidates keeps the first ones in discovery order, which
// here is not their sorted order. Patterns A and B (ws[1], ws[2]) have 256
// embeddings each, every one through hub vertex 0, so all 65,536
// embedding pairs overlap there; only A's and B's last embeddings also
// share vertex z, which ws[0] touches first. So the pair (255, 255) is
// discovered before any other, and the cap keeps it.
func TestMergeScanCapKeepsDiscoveryOrder(t *testing.T) {
	const n = mergeScanEmb
	z := graph.V(2*n + 1)
	g := graph.FromEdges(make([]graph.Label, 2*n+3), nil)
	m := minerFor(g, Config{MinSupport: 2, Dmax: 4})
	edge := graph.FromEdges([]graph.Label{0, 0}, []graph.Edge{{U: 0, W: 1}})
	var ea, eb []pattern.Embedding
	for i := range n - 1 {
		ea = append(ea, pattern.Embedding{0, graph.V(1 + i)})
		eb = append(eb, pattern.Embedding{0, graph.V(n + i)})
	}
	ea, eb = append(ea, pattern.Embedding{0, z}), append(eb, pattern.Embedding{0, z})
	ws := []*grown{
		{p: pattern.New(edge, []pattern.Embedding{{z, z + 1}})},
		{p: pattern.New(edge, ea)},
		{p: pattern.New(edge, eb)},
	}
	groups, err := m.mergeGroups(ws)
	if err != nil {
		t.Fatal(err)
	}
	wantCands, wantGroups := mergeGroupsReference(g, ws)
	if !slices.Equal(m.mergeCands, wantCands) || !slices.Equal(groups, wantGroups) {
		t.Fatalf("scan differs from the reference: %d candidates in %d groups, the reference %d in %d", len(m.mergeCands), len(groups), len(wantCands), len(wantGroups))
	}
	ab := groups[len(groups)-1]
	if ab.pk != (pairKey{1, 2}) || !ab.cut || ab.hi-ab.lo != mergePairCap {
		t.Fatalf("group %+v, want pair (1, 2) cut to %d candidates", ab, mergePairCap)
	}
	if last := m.mergeCands[ab.hi-1]; last.ea != n-1 || last.eb != n-1 {
		t.Fatalf("the cut group ends with (%d, %d), want the first-discovered pair (%d, %d)", last.ea, last.eb, n-1, n-1)
	}
}

// TestMarkKnownFailuresRule: a group is resolved as a known failure
// exactly when its ordered pattern-ID pair failed in the previous round,
// both patterns are done and the cap did not cut its candidates; the pair
// in the other order is a different key.
func TestMarkKnownFailuresRule(t *testing.T) {
	m := minerFor(growHost(), Config{})
	m.failed.add(3, 5)
	m.failed.endRound(true)
	for _, tc := range []struct {
		idA, idB          int
		doneA, doneB, cut bool
		want              bool
	}{
		{3, 5, true, true, false, true},
		{3, 5, false, true, false, false},
		{3, 5, true, false, false, false},
		{3, 5, true, true, true, false},
		{5, 3, true, true, false, false},
		{3, 6, true, true, false, false},
	} {
		ws := []*grown{{p: &pattern.Pattern{ID: tc.idA}, done: tc.doneA}, {p: &pattern.Pattern{ID: tc.idB}, done: tc.doneB}}
		groups := []pairGroup{{pk: pairKey{0, 1}, cut: tc.cut}}
		m.markKnownFailures(ws, groups)
		if groups[0].knownFail != tc.want {
			t.Errorf("%+v: known failure %t, want %t", tc, groups[0].knownFail, tc.want)
		}
	}
}

// TestKnownFailuresFail is the oracle of the known-failure rule: in every
// merge round of the round cases' mines, every group markKnownFailures
// resolves is evaluated anyway, on an arena of its own, and fails.
func TestKnownFailuresFail(t *testing.T) {
	for _, tc := range roundCases() {
		known := 0
		eachRound(t, tc.g, tc.cfg, func(m *Miner, ws []*grown) {
			if len(ws) < 2 {
				return
			}
			groups, err := m.mergeGroups(ws)
			if err != nil {
				t.Fatal(err)
			}
			m.markKnownFailures(ws, groups)
			var probe []pairGroup
			for _, gp := range groups {
				if gp.knownFail {
					gp.knownFail = false
					probe = append(probe, gp)
				}
			}
			var im mergeImages
			im.prepare(ws, m.scan.base, probe, m.mergeCands)
			var sc mergeScratch
			var isoRun int64
			for _, gp := range probe {
				if m.tryMerge(&im, m.mergeCands[gp.lo:gp.hi], &sc, &isoRun) != nil {
					t.Fatalf("%s: group %v (IDs %d, %d) was resolved as failed, but merges", tc.name, gp.pk, ws[gp.pk.a].p.ID, ws[gp.pk.b].p.ID)
				}
			}
			known += len(probe)
		})
		if known == 0 {
			t.Fatalf("%s: no group was resolved as a known failure", tc.name)
		}
		t.Logf("%s: %d known failures, each evaluated and failed", tc.name, known)
	}
}

// TestMergeImagesMatchAppendImage: after every merge wave of the round
// cases' mines, every image the round's arena holds as prepared equals
// appendImage's output for its pattern's current graph and embedding.
func TestMergeImagesMatchAppendImage(t *testing.T) {
	for _, tc := range roundCases() {
		checked := 0
		m := New(tc.g, tc.cfg)
		m.waveSeen = func([]waveItem) {
			im := &m.images
			for w, g := range im.ws {
				for s := im.base[w]; s < im.base[w+1]; s++ {
					if !im.ready[s] {
						continue
					}
					sp := im.span[s]
					wantE, wantV := appendImage(nil, nil, g.p.G, g.p.Emb[s-im.base[w]])
					if !slices.Equal(im.edges[sp.e0:sp.e1], wantE) || !slices.Equal(im.verts[sp.v0:sp.v1], wantV) {
						t.Fatalf("%s: prepared image of pattern %d embedding %d differs from appendImage's", tc.name, g.p.ID, s-im.base[w])
					}
					checked++
				}
			}
		}
		if _, err := m.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		if checked == 0 {
			t.Fatalf("%s: no prepared image was checked", tc.name)
		}
	}
}

// TestMergeRoundWarmNoAlloc: on a warm Miner, a merge round's candidate
// scan, its known-failure marks, the arena's sizing and the preparation
// of every image the round's groups name allocate nothing.
func TestMergeRoundWarmNoAlloc(t *testing.T) {
	gid1, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	m, ws := mergeSet(t, gid1, Config{MinSupport: 2, K: 10, Dmax: 4, Seed: 1})
	round := func() {
		groups, err := m.mergeGroups(ws)
		if err != nil || len(groups) == 0 {
			t.Fatalf("%d groups, err %v", len(groups), err)
		}
		m.markKnownFailures(ws, groups)
		m.images.prepare(ws, m.scan.base, groups, m.mergeCands)
		for _, c := range m.mergeCands {
			m.images.image(c.a, c.ea)
			m.images.image(c.b, c.eb)
		}
	}
	round() // warm every table first
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Errorf("warm merge-round scan and image preparation allocate %.1f/op, want 0", allocs)
	}
}

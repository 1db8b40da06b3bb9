package spider

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"testing/quick"

	"repro/internal/graph"
)

// minedStar is one star of a table with its hosts, copied out for tests.
type minedStar struct {
	Star  Star
	Hosts []graph.V
}

func (m minedStar) Support() int { return len(m.Hosts) }

// starKey names a star in test output and lookups: the head label, a
// colon, then the leaf labels, comma-separated.
func starKey(s Star) string {
	b := strconv.AppendInt(nil, int64(s.Head), 10)
	b = append(b, ':')
	for i, l := range s.Leaves {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(l), 10)
	}
	return string(b)
}

// listStars copies a star table into a list of its stars, in table order.
func listStars(t *Stars) []minedStar {
	out := make([]minedStar, t.Len())
	for i := range out {
		out[i] = minedStar{Star{Head: t.Head(i), Leaves: t.AppendLeaves(nil, i)}, slices.Clone(t.Hosts(i))}
	}
	return out
}

// starIndex returns the table index of the star with the given key, or -1.
func starIndex(t *Stars, key string) int {
	for i, ms := range listStars(t) {
		if starKey(ms.Star) == key {
			return i
		}
	}
	return -1
}

// twoStarsGraph builds two copies of a star with head label 9 and leaves
// 1,1,2, joined by a bridge, plus an isolated extra vertex.
func twoStarsGraph() *graph.Graph {
	b := graph.NewBuilder(9, 10)
	mk := func() graph.V {
		h := b.AddVertex(9)
		l1 := b.AddVertex(1)
		l2 := b.AddVertex(1)
		l3 := b.AddVertex(2)
		b.AddEdge(h, l1)
		b.AddEdge(h, l2)
		b.AddEdge(h, l3)
		return h
	}
	h1 := mk()
	h2 := mk()
	b.AddVertex(5)
	b.AddEdge(h1, h2)
	return b.Build()
}

func TestStarKeyAndGraph(t *testing.T) {
	s := Star{Head: 9, Leaves: []graph.Label{1, 1, 2}}
	if k := starKey(s); k != "9:1,1,2" {
		t.Fatalf("key %q", k)
	}
}

func TestMineStarsFindsSharedStar(t *testing.T) {
	g := twoStarsGraph()
	stars := listStars(mineStars(g, Options{MinSupport: 2}))
	// The star (9 : 1,1,2) must be found with exactly the two heads.
	var found *minedStar
	for _, ms := range stars {
		if starKey(ms.Star) == "9:1,1,2" {
			found = &ms
		}
	}
	if found == nil {
		t.Fatal("star 9:1,1,2 not mined")
	}
	if found.Support() != 2 {
		t.Fatalf("support %d, want 2", found.Support())
	}
	// No star may exceed the support of its sub-stars (anti-monotonicity).
	supOf := map[string]int{}
	for _, ms := range stars {
		supOf[starKey(ms.Star)] = ms.Support()
	}
	for _, ms := range stars {
		if len(ms.Star.Leaves) < 2 {
			continue
		}
		// drop last leaf -> parent key
		parent := Star{Head: ms.Star.Head, Leaves: ms.Star.Leaves[:len(ms.Star.Leaves)-1]}
		if ps, ok := supOf[starKey(parent)]; ok && ms.Support() > ps {
			t.Fatalf("anti-monotonicity violated: %s sup %d > parent %s sup %d",
				starKey(ms.Star), ms.Support(), starKey(parent), ps)
		}
	}
}

func TestMineStarsRespectsSupport(t *testing.T) {
	g := twoStarsGraph()
	stars := listStars(mineStars(g, Options{MinSupport: 3}))
	for _, ms := range stars {
		if ms.Star.Head == 9 && len(ms.Star.Leaves) > 0 {
			// only 2 star heads exist; nothing headed at 9 may survive σ=3
			// except stars hosted by... there are exactly 2 label-9 heads.
			t.Fatalf("star %s with support %d survived σ=3", starKey(ms.Star), ms.Support())
		}
	}
}

func TestMineStarsMaxLeaves(t *testing.T) {
	g := twoStarsGraph()
	stars := listStars(mineStars(g, Options{MinSupport: 2, MaxLeaves: 1}))
	for _, ms := range stars {
		if len(ms.Star.Leaves) > 1 {
			t.Fatalf("MaxLeaves=1 violated: %s", starKey(ms.Star))
		}
	}
}

func TestComputeMPaperExample(t *testing.T) {
	// Paper §4.1: ε=0.1, K=10, Vmin=|V|/10 ⇒ M=85 (the paper rounds; the
	// minimal integer satisfying Lemma 2 is 86).
	m := ComputeM(10000, 1000, 10, 0.1)
	if m < 84 || m > 87 {
		t.Fatalf("M=%d, want ≈85", m)
	}
	if ps := PSuccess(10000, 1000, 10, m); ps < 0.9 {
		t.Fatalf("PSuccess(M=%d)=%f < 0.9", m, ps)
	}
	if ps := PSuccess(10000, 1000, 10, m-2); ps >= 0.9 {
		t.Fatalf("M not minimal: PSuccess(M-2)=%f", ps)
	}
}

func TestComputeMDegenerate(t *testing.T) {
	if ComputeM(0, 1, 1, 0.1) != 1 {
		t.Fatal("degenerate |V| should return 1")
	}
	if m := ComputeM(10, 10, 1, 0.1); m != 2 {
		t.Fatalf("Vmin=|V| should return 2, got %d", m)
	}
}

// Property: ComputeM is monotone — more patterns (K up) or tighter error
// (ε down) or smaller Vmin never decreases M.
func TestQuickComputeMMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + rng.Intn(100000)
		vmin := 10 + rng.Intn(n/10)
		k := 1 + rng.Intn(30)
		eps := 0.05 + rng.Float64()*0.4
		m := ComputeM(n, vmin, k, eps)
		return ComputeM(n, vmin, k+1, eps) >= m &&
			ComputeM(n, vmin/2+1, k, eps) >= m &&
			ComputeM(n, vmin, k, eps/2) >= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomSeedDeterminism(t *testing.T) {
	g := twoStarsGraph()
	stars := mineStars(g, Options{MinSupport: 2})
	var sd Seeder
	a, _ := sd.Draw(context.Background(), g, stars, 3, rand.New(rand.NewSource(1)))
	b, _ := sd.Draw(context.Background(), g, stars, 3, rand.New(rand.NewSource(1)))
	if len(a) != len(b) {
		t.Fatal("draw size differs")
	}
	for i := range a {
		if a[i].G.N() != b[i].G.N() || len(a[i].Emb) != len(b[i].Emb) {
			t.Fatal("seeded draws differ")
		}
	}
}

// TestDrawCancelledKeepsRNG: a draw under a context that has already
// fired returns nil and ctx.Err() and leaves the rng where an uncancelled
// draw leaves it, so a cancelled restart does not shift later draws.
func TestDrawCancelledKeepsRNG(t *testing.T) {
	g := twoStarsGraph()
	stars := mineStars(g, Options{MinSupport: 2})
	var sd Seeder
	rng := rand.New(rand.NewSource(1))
	if seeds, err := sd.Draw(context.Background(), g, stars, 3, rng); err != nil || len(seeds) != 3 {
		t.Fatalf("uncancelled draw: %d seeds, err %v; want 3, nil", len(seeds), err)
	}
	want := rng.Int63()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng = rand.New(rand.NewSource(1))
	seeds, err := sd.Draw(ctx, g, stars, 3, rng)
	if seeds != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled draw: %d seeds, err %v; want nil, context.Canceled", len(seeds), err)
	}
	if got := rng.Int63(); got != want {
		t.Fatalf("after a cancelled draw the rng yields %d, after an uncancelled one %d", got, want)
	}
}

func TestMaterializeEmbeddings(t *testing.T) {
	g := twoStarsGraph()
	stars := mineStars(g, Options{MinSupport: 2})
	i := starIndex(stars, "9:1,2")
	if i < 0 || !slices.Equal(stars.Hosts(i), []graph.V{0, 4}) {
		t.Fatalf("star 9:1,2 not mined on heads 0 and 4 (index %d)", i)
	}
	var mz Materializer
	p := mz.Materialize(g, stars, i)
	if p.G.N() != 3 {
		t.Fatalf("pattern vertices %d", p.G.N())
	}
	if p.Origin != 0 {
		t.Fatal("origin must be the head")
	}
	// head 0 has leaves {1,1,2}: choosing 1 of the two label-1 leaves
	// gives 2 embeddings per head → 4 total.
	if len(p.Emb) != 4 {
		t.Fatalf("embeddings %d, want 4", len(p.Emb))
	}
	for _, e := range p.Emb {
		if g.Label(e[0]) != 9 {
			t.Fatal("head image label wrong")
		}
		if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[0], e[2]) {
			t.Fatal("embedding edges missing")
		}
	}
}

// TestMaterializePerHostCap: a head with five label-1 neighbors has
// C(5,2) = 10 ways to host the star 9:[1,1], but at most MaxEmbPerHost
// (8) of them are enumerated, per head.
func TestMaterializePerHostCap(t *testing.T) {
	b := graph.NewBuilder(12, 10)
	var heads []graph.V
	for range 2 {
		h := b.AddVertex(9)
		for range 5 {
			b.AddEdge(h, b.AddVertex(1))
		}
		heads = append(heads, h)
	}
	g := b.Build()
	stars := mineStars(g, Options{MinSupport: 2})
	i := starIndex(stars, "9:1,1")
	if i < 0 || !slices.Equal(stars.Hosts(i), heads) {
		t.Fatalf("star 9:1,1 not mined on heads %v (index %d)", heads, i)
	}
	var mz Materializer
	p := mz.Materialize(g, stars, i)
	perHead := map[graph.V]int{}
	for _, e := range p.Emb {
		perHead[e[0]]++
	}
	for _, h := range heads {
		if perHead[h] != 8 {
			t.Fatalf("head %d: %d embeddings, want the cap 8 of 10 leaf choices", h, perHead[h])
		}
	}
}

func TestCombinations(t *testing.T) {
	var idx []int
	var buf []graph.V
	combinations := func(xs []graph.V, k int, fn func([]graph.V) bool) {
		combinationsInto(xs, k, &idx, &buf, fn)
	}
	var got [][]graph.V
	combinations([]graph.V{1, 2, 3}, 2, func(c []graph.V) bool {
		got = append(got, append([]graph.V(nil), c...))
		return true
	})
	want := [][]graph.V{{1, 2}, {1, 3}, {2, 3}}
	if len(got) != len(want) {
		t.Fatalf("combinations: %v", got)
	}
	for i := range want {
		if got[i][0] != want[i][0] || got[i][1] != want[i][1] {
			t.Fatalf("combinations[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// early stop
	n := 0
	combinations([]graph.V{1, 2, 3, 4}, 2, func([]graph.V) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop: %d", n)
	}
	// degenerate
	combinations([]graph.V{1}, 5, func([]graph.V) bool { t.Fatal("k>n must not call"); return false })
}

// mineStars runs MineStarsContext under a context that never fires.
func mineStars(g *graph.Graph, opt Options) *Stars {
	stars, _ := MineStarsContext(context.Background(), g, opt)
	return stars
}

package spider

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// mineStarsReference is the level-wise star enumeration StarMiner
// replaced, kept as the oracle: sorted neighbor labels per vertex, level-1
// (head, leaf, host) triples, and per parent star a sorted, compacted
// candidate list whose hosts are re-counted by binary search (countLabel).
// Runs of equal labels are walked with a first-iteration flag, not a
// label sentinel, so every int32 label is a label. Never optimize it.
func mineStarsReference(g *graph.Graph, opt Options) []minedStar {
	sigma := max(opt.MinSupport, 1)
	maxLeaves := opt.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	nbr := make([][]graph.Label, g.N())
	for v := range nbr {
		for _, w := range g.Neighbors(graph.V(v)) {
			nbr[v] = append(nbr[v], g.Label(w))
		}
		slices.Sort(nbr[v])
	}
	countLabel := func(v graph.V, l graph.Label) int {
		lo, _ := slices.BinarySearch(nbr[v], l)
		hi := lo
		for hi < len(nbr[v]) && nbr[v][hi] == l {
			hi++
		}
		return hi - lo
	}

	var triples []pairTriple // head and leaf hold labels here, not ranks
	for v := range nbr {
		first, prev := true, graph.Label(0)
		for _, l := range nbr[v] {
			if first || l != prev {
				triples = append(triples, pairTriple{head: int32(g.Label(graph.V(v))), leaf: int32(l), v: graph.V(v)})
			}
			first, prev = false, l
		}
	}
	slices.SortFunc(triples, cmpTriple)
	var frontier []minedStar
	for i := 0; i < len(triples); {
		j := i + 1
		for j < len(triples) && triples[j].head == triples[i].head && triples[j].leaf == triples[i].leaf {
			j++
		}
		if j-i >= sigma {
			var hosts []graph.V
			for k := i; k < j; k++ {
				hosts = append(hosts, triples[k].v)
			}
			frontier = append(frontier, minedStar{
				Star:  Star{Head: graph.Label(triples[i].head), Leaves: []graph.Label{graph.Label(triples[i].leaf)}},
				Hosts: hosts,
			})
		}
		i = j
	}

	expand := func(ms minedStar) []minedStar {
		leaves := ms.Star.Leaves
		last := leaves[len(leaves)-1]
		var cands []graph.Label
		for _, v := range ms.Hosts {
			lo, _ := slices.BinarySearch(nbr[v], last)
			first, prev := true, graph.Label(0)
			for _, l := range nbr[v][lo:] {
				if first || l != prev {
					cands = append(cands, l)
				}
				first, prev = false, l
			}
		}
		slices.Sort(cands)
		cands = slices.Compact(cands)
		var out []minedStar
		for _, l := range cands {
			need := 1
			for _, x := range leaves {
				if x == l {
					need++
				}
			}
			var hosts []graph.V
			for _, v := range ms.Hosts {
				if countLabel(v, l) >= need {
					hosts = append(hosts, v)
				}
			}
			if len(hosts) < sigma {
				continue
			}
			lcopy := append(slices.Clone(leaves), l)
			slices.Sort(lcopy)
			out = append(out, minedStar{Star: Star{Head: ms.Star.Head, Leaves: lcopy}, Hosts: hosts})
		}
		return out
	}

	all := slices.Clone(frontier)
	cur := frontier
	for level := 1; level < maxLeaves && len(cur) > 0; level++ {
		if opt.MaxSpiders > 0 && len(all) >= opt.MaxSpiders {
			break
		}
		var next []minedStar
		for _, ms := range cur {
			next = append(next, expand(ms)...)
		}
		slices.SortFunc(next, cmpStars)
		all = append(all, next...)
		cur = next
	}
	if opt.MaxSpiders > 0 && len(all) > opt.MaxSpiders {
		all = all[:opt.MaxSpiders]
	}
	return all
}

// pairTriple is one level-1 observation of the reference: head vertex v
// (label head) has at least one neighbor of label leaf.
type pairTriple struct {
	head, leaf int32
	v          graph.V
}

// cmpTriple is the comparison the reference sorts its level-1 triples
// with: the total order (head, leaf, host).
func cmpTriple(a, b pairTriple) int {
	if a.head != b.head {
		return int(a.head) - int(b.head)
	}
	if a.leaf != b.leaf {
		return int(a.leaf) - int(b.leaf)
	}
	return int(a.v) - int(b.v)
}

// cmpStars orders mined stars by head label, then leaf multiset
// (lexicographic, shorter first on common prefix): the order of every
// level StarMiner returns.
func cmpStars(a, b minedStar) int {
	if a.Star.Head != b.Star.Head {
		return int(a.Star.Head) - int(b.Star.Head)
	}
	al, bl := a.Star.Leaves, b.Star.Leaves
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return int(al[i]) - int(bl[i])
		}
	}
	return len(al) - len(bl)
}

// relabeled returns g with every label replaced by f(label).
func relabeled(g *graph.Graph, f func(graph.Label) graph.Label) *graph.Graph {
	labels := make([]graph.Label, g.N())
	for v := range labels {
		labels[v] = f(g.Label(graph.V(v)))
	}
	return graph.FromEdges(labels, g.Edges())
}

// TestStarMinerMatchesReference compares every star, its host list and
// the order of both against the reference enumeration, on random hosts,
// hub-heavy BA hosts, and hosts whose labels are
// negative, sparse (multiples of 10^6) or at the ends of int32. One
// StarMiner is reused across all of them, so stale per-rank tallies would
// show too.
func TestStarMinerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	type host struct {
		name string
		g    *graph.Graph
		opt  Options
	}
	var hosts []host
	add := func(name string, g *graph.Graph, opt Options) {
		hosts = append(hosts, host{name, g, opt})
		hosts = append(hosts, host{name + "/neg", relabeled(g, func(l graph.Label) graph.Label { return -l - 1 }), opt})
		hosts = append(hosts, host{name + "/sparse", relabeled(g, func(l graph.Label) graph.Label { return (l - 5) * 1_000_000 }), opt})
		hosts = append(hosts, host{name + "/extreme", relabeled(g, func(l graph.Label) graph.Label {
			switch l % 4 {
			case 0:
				return math.MinInt32 + l/4
			case 1:
				return math.MaxInt32 - l/4
			case 2:
				return -1 - l/4
			}
			return l / 4
		}), opt})
	}
	rounds := 6
	if testing.Short() {
		rounds = 2
	}
	for i := 0; i < rounds; i++ {
		add(fmt.Sprintf("er%d", i), gen.ErdosRenyi(60+40*i, 3+float64(i%3), 2+i, rng), Options{MinSupport: 2})
		add(fmt.Sprintf("ba%d", i), gen.BarabasiAlbert(150+100*i, 2+i%2, 3+2*i, rng), Options{MinSupport: 2 + i%3, MaxLeaves: 5})
	}
	add("ba-capped", gen.BarabasiAlbert(800, 2, 6, rng), Options{MinSupport: 3, MaxLeaves: 6, MaxSpiders: 3000})
	// Caps below level 1's 1874 stars, at the end of level 2 (5541), and
	// at two points inside level 4; see capHost.
	for _, c := range []int{1000, 5541, 34834, 47834} {
		add(fmt.Sprintf("sf-cap%d", c), capHost(), Options{MinSupport: 2, MaxLeaves: 6, MaxSpiders: c})
	}
	gid, _ := gen.Synthetic(gen.GIDConfig(1, 1))
	add("gid1", gid, Options{MinSupport: 2})

	ctx := context.Background()
	var sm StarMiner
	for _, h := range hosts {
		stars, err := sm.Mine(ctx, h.g, h.opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStars(listStars(stars), mineStarsReference(h.g, h.opt)); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
	}
}

// sameStars reports the first difference between two star lists: a
// star, its host list, or the order of either.
func sameStars(got, want []minedStar) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d stars, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Star.Head != want[i].Star.Head || !slices.Equal(got[i].Star.Leaves, want[i].Star.Leaves) ||
			!slices.Equal(got[i].Hosts, want[i].Hosts) {
			return fmt.Errorf("star %d is %v hosts %v, want %v hosts %v",
				i, got[i].Star, got[i].Hosts, want[i].Star, want[i].Hosts)
		}
	}
	return nil
}

// capHost is a scale-free host whose star lattice outgrows any cap a test
// sets. At σ=2 and 6 leaves its levels hold 1874, 3667, 9293, 34177,
// 119950 and 375360 stars (544,321 in all), so the table holds 14,834
// stars before level 4 and 49,011 after it.
func capHost() *graph.Graph {
	return gen.BarabasiAlbert(2000, 2, 50, rand.New(rand.NewSource(2)))
}

// TestStarMinerCapBuildsOneStar: with MaxSpiders set, Stage I expands no
// frontier star once the table is full and cuts the star that filled it,
// so at most one star's extensions, at most the host's distinct-label
// count, are built beyond the cap. The cap here is under a fifteenth of
// the host's uncapped Stage I (see capHost) and falls inside level 4.
func TestStarMinerCapBuildsOneStar(t *testing.T) {
	g := capHost()
	const maxSpiders = 34834
	var sm StarMiner
	found, late := 0, 0
	sm.starSeen = func(_, n int) {
		if sm.out.Len() >= maxSpiders {
			late++
		}
		found += n
	}
	stars, err := sm.Mine(context.Background(), g, Options{MinSupport: 2, MaxLeaves: 6, MaxSpiders: maxSpiders})
	if err != nil {
		t.Fatal(err)
	}
	if stars.Len() != maxSpiders {
		t.Fatalf("%d stars kept, want the cap %d", stars.Len(), maxSpiders)
	}
	if late != 0 {
		t.Fatalf("%d frontier stars expanded with the table full", late)
	}
	built := found // level 1 is written straight from the level-1 scan
	for i := 0; i < stars.Len() && stars.NumLeaves(i) == 1; i++ {
		built++
	}
	if over, labels := built-maxSpiders, len(stars.labels); over > labels {
		t.Fatalf("built %d stars for a cap of %d: %d beyond it, more than one star's %d labels", built, maxSpiders, over, labels)
	}
	t.Logf("built %d stars for a cap of %d", built, maxSpiders)
}

// TestStarMinerCancelKeepsWholeLevels: a Stage I cancelled while it
// expands a level returns context.Canceled and exactly the levels it
// completed, as the reference enumerates them. The cancel fires from the
// per-star hook, after that star is counted; the star's own extensions
// are still placed, and the poll before the next frontier star sees the
// cancel. Cancelled at the last star of a level, the level it builds is
// complete, and the cancel is seen before the next level starts. Each
// cancelled run leaves the StarMiner ready: its next run equals a fresh
// miner's.
func TestStarMinerCancelKeepsWholeLevels(t *testing.T) {
	g := gen.BarabasiAlbert(400, 2, 8, rand.New(rand.NewSource(5)))
	opt := Options{MinSupport: 3, MaxLeaves: 6}
	want := mineStarsReference(g, opt)
	var first []int // first[k]: index of the first star with k+1 leaves
	for i, ms := range want {
		if len(ms.Star.Leaves) > len(first) {
			first = append(first, i)
		}
	}
	if len(first) < 4 {
		t.Fatalf("host has %d levels, want at least 4", len(first))
	}
	upTo := func(leaves int) []minedStar { // the levels of at most leaves leaves
		if leaves < len(first) {
			return want[:first[leaves]]
		}
		return want
	}
	for _, tc := range []struct {
		name string
		at   int // the frontier star whose hook cancels
		kept int // the levels returned
	}{
		{"first star of level 2", first[1], 2},
		{"inside level 3", (first[2] + first[3]) / 2, 3},
		{"last star of level 2", first[2] - 1, 3},
	} {
		var sm StarMiner
		ctx, cancel := context.WithCancel(context.Background())
		sm.starSeen = func(p, _ int) {
			if p == tc.at {
				cancel()
			}
		}
		stars, err := sm.Mine(ctx, g, opt)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err %v, want context.Canceled", tc.name, err)
		}
		if err := sameStars(listStars(stars), upTo(tc.kept)); err != nil {
			t.Fatalf("%s: cancelled table against the reference's first %d levels: %v", tc.name, tc.kept, err)
		}
		sm.starSeen = nil
		stars, err = sm.Mine(context.Background(), g, opt)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameStars(listStars(stars), listStars(mineStars(g, opt))); err != nil {
			t.Fatalf("%s: the next run against a fresh miner's: %v", tc.name, err)
		}
	}
}

// TestMineStarsNegativeLeafLabel: a leaf label of -1 is a label like any
// other. Three copies of a star with head 5 and two leaves labelled L hold
// the stars 5:[L], 5:[L,L] and L:[5] at σ=3, whatever L is.
func TestMineStarsNegativeLeafLabel(t *testing.T) {
	for _, leaf := range []graph.Label{0, -1, -2, math.MinInt32, math.MaxInt32} {
		b := graph.NewBuilder(9, 6)
		for c := 0; c < 3; c++ {
			h := b.AddVertex(5)
			b.AddEdge(h, b.AddVertex(leaf))
			b.AddEdge(h, b.AddVertex(leaf))
		}
		stars := listStars(mineStars(b.Build(), Options{MinSupport: 3}))
		if len(stars) != 3 {
			t.Errorf("leaf label %d: %d stars, want 3", leaf, len(stars))
			for _, ms := range stars {
				t.Logf("  %s hosts %v", starKey(ms.Star), ms.Hosts)
			}
		}
	}
}

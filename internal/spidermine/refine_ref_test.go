package spidermine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/pattern"
)

// The reference WL kernel, straightforward and slow: each round sorts a
// vertex's neighbour colors and hashes its own color and then them, byte
// by byte, with FNV-1a. TestRefineMatchesReference checks canon's
// word-level refinement against its partitions; never optimize it. It
// keeps its own copy of the round count, so a change to canon's is caught
// too. It lives here rather than in canon so that its corpus can include
// the merge unions of baMergeSet.

const (
	refFNVOffset = 14695981039346656037
	refFNVPrime  = 1099511628211
)

func refFNVMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= refFNVPrime
		x >>= 8
	}
	return h
}

// refRounds is log2(n)+2 rounds, at most 16.
func refRounds(n int) int {
	r := 2
	for m := n; m > 1; m >>= 1 {
		r++
	}
	return min(r, 16)
}

func refineReference(g *graph.Graph) []uint64 {
	n := g.N()
	colors := make([]uint64, n)
	next := make([]uint64, n)
	for v := 0; v < n; v++ {
		colors[v] = refFNVMix(refFNVOffset, uint64(g.Label(graph.V(v))))
	}
	var buf []uint64
	for r := refRounds(n); r > 0; r-- {
		for v := 0; v < n; v++ {
			buf = buf[:0]
			for _, w := range g.Neighbors(graph.V(v)) {
				buf = append(buf, colors[w])
			}
			slices.Sort(buf)
			h := refFNVMix(refFNVOffset, colors[v])
			for _, c := range buf {
				h = refFNVMix(h, c)
			}
			next[v] = h
		}
		colors, next = next, colors
	}
	return colors
}

// samePartition reports whether two colorings split the vertices into the
// same classes: equal colors under one exactly where equal under the other.
func samePartition(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	ab := make(map[uint64]uint64, len(a))
	ba := make(map[uint64]uint64, len(b))
	for v := range a {
		if x, ok := ab[a[v]]; ok && x != b[v] {
			return false
		}
		if x, ok := ba[b[v]]; ok && x != a[v] {
			return false
		}
		ab[a[v]], ba[b[v]] = b[v], a[v]
	}
	return true
}

// relabel returns g with its vertex ids randomly permuted.
func relabel(g *graph.Graph, rng *rand.Rand) *graph.Graph {
	perm := rng.Perm(g.N())
	labels := make([]graph.Label, g.N())
	for v, pv := range perm {
		labels[pv] = g.Label(graph.V(v))
	}
	var edges []graph.Edge
	for _, e := range g.Edges() {
		edges = append(edges, graph.Edge{U: graph.V(perm[e.U]), W: graph.V(perm[e.W])})
	}
	return graph.FromEdges(labels, edges)
}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// refineCorpus returns the graphs TestRefineMatchesReference checks:
// random graphs, hub-heavy BA graphs, long labelled paths (whose
// partition is still splitting at the last round), cycles and other
// regular graphs, complete bipartite graphs, and the distinct candidate
// unions of the first merge round on the BA-2000 working set.
func refineCorpus(t *testing.T) []namedGraph {
	rng := rand.New(rand.NewSource(21))
	var out []namedGraph
	add := func(name string, g *graph.Graph) { out = append(out, namedGraph{name, g}) }
	random := 200
	if testing.Short() {
		random = 40
	}
	for i := 0; i < random; i++ {
		n := 1 + rng.Intn(120)
		labels := make([]graph.Label, n)
		nl := 1 + rng.Intn(4)
		for v := range labels {
			labels[v] = graph.Label(rng.Intn(nl))
		}
		var edges []graph.Edge
		for e := rng.Intn(3 * n); e > 0; e-- {
			if u, w := rng.Intn(n), rng.Intn(n); u != w {
				edges = append(edges, graph.Edge{U: graph.V(u), W: graph.V(w)})
			}
		}
		add(fmt.Sprintf("random%d", i), graph.FromEdges(labels, edges))
	}
	for _, n := range []int{100, 300, 600, 1000} {
		for _, nl := range []int{1, 5, 50} {
			add(fmt.Sprintf("ba%d/labels=%d", n, nl), gen.BarabasiAlbert(n, 2, nl, rng))
		}
	}
	path := func(labels []graph.Label) *graph.Graph {
		var edges []graph.Edge
		for v := 1; v < len(labels); v++ {
			edges = append(edges, graph.Edge{U: graph.V(v - 1), W: graph.V(v)})
		}
		return graph.FromEdges(labels, edges)
	}
	cycle := func(labels []graph.Label) *graph.Graph {
		g := path(labels)
		return graph.FromEdges(labels, append(g.Edges(), graph.Edge{U: 0, W: graph.V(len(labels) - 1)}))
	}
	for _, n := range []int{2, 3, 17, 64, 65, 200, 500} {
		uniform := make([]graph.Label, n)
		mixed := make([]graph.Label, n)
		periodic := make([]graph.Label, n)
		for v := range mixed {
			mixed[v] = graph.Label(rng.Intn(2))
			periodic[v] = graph.Label(v % 3)
		}
		add(fmt.Sprintf("path%d/uniform", n), path(uniform))
		add(fmt.Sprintf("path%d/mixed", n), path(mixed))
		if n >= 3 {
			add(fmt.Sprintf("cycle%d/uniform", n), cycle(uniform))
			add(fmt.Sprintf("cycle%d/mixed", n), cycle(mixed))
			add(fmt.Sprintf("cycle%d/periodic", n), cycle(periodic))
		}
	}
	// Regular graphs: hypercubes, circulants, the Petersen graph and two
	// disjoint triangles.
	for _, d := range []int{3, 6} {
		n := 1 << d
		var edges []graph.Edge
		for v := 0; v < n; v++ {
			for b := 0; b < d; b++ {
				if w := v ^ 1<<b; v < w {
					edges = append(edges, graph.Edge{U: graph.V(v), W: graph.V(w)})
				}
			}
		}
		add(fmt.Sprintf("hypercube%d", d), graph.FromEdges(make([]graph.Label, n), edges))
	}
	for _, c := range [][2]int{{20, 3}, {41, 7}, {60, 5}} {
		n, k := c[0], c[1]
		var edges []graph.Edge
		for v := 0; v < n; v++ {
			edges = append(edges, graph.Edge{U: graph.V(v), W: graph.V((v + 1) % n)}, graph.Edge{U: graph.V(v), W: graph.V((v + k) % n)})
		}
		add(fmt.Sprintf("circulant%d,%d", n, k), graph.FromEdges(make([]graph.Label, n), edges))
	}
	var petersen []graph.Edge
	for i := 0; i < 5; i++ {
		petersen = append(petersen,
			graph.Edge{U: graph.V(i), W: graph.V((i + 1) % 5)},
			graph.Edge{U: graph.V(i), W: graph.V(5 + i)},
			graph.Edge{U: graph.V(5 + i), W: graph.V(5 + (i+2)%5)})
	}
	add("petersen", graph.FromEdges(make([]graph.Label, 10), petersen))
	add("2xC3", graph.FromEdges(make([]graph.Label, 6), []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}, {U: 0, W: 2}, {U: 3, W: 4}, {U: 4, W: 5}, {U: 3, W: 5}}))
	for _, n := range []int{1, 4, 16, 40} {
		var edges []graph.Edge
		for u := 0; u < n; u++ {
			for w := 0; w < n; w++ {
				edges = append(edges, graph.Edge{U: graph.V(u), W: graph.V(n + w)})
			}
		}
		uniform := make([]graph.Label, 2*n)
		sided := make([]graph.Label, 2*n)
		for v := n; v < 2*n; v++ {
			sided[v] = 1
		}
		add(fmt.Sprintf("K%d,%d/uniform", n, n), graph.FromEdges(uniform, edges))
		add(fmt.Sprintf("K%d,%d/sided", n, n), graph.FromEdges(sided, edges))
	}
	return append(out, baMergeUnions(t)...)
}

// baMergeUnions returns the distinct candidate unions of the first merge
// round on baMergeSet's working set (the first 300 under -short), built
// the straightforward way: both
// parents' images concatenated, sorted, compacted and handed to
// SubgraphOfEdges.
func baMergeUnions(t *testing.T) []namedGraph {
	m, ws := baMergeSet(t)
	groups, _ := m.mergeGroups(ws)
	if len(groups) == 0 {
		t.Fatal("working set has no merge candidates")
	}
	limit := len(m.mergeCands) // every distinct union, 8,889 of them
	if testing.Short() {
		limit = 300
	}
	image := func(p *pattern.Pattern, e int32) []graph.Edge {
		return canon.AppendMappedEdges(nil, p.G, canon.Mapping(p.Emb[e]))
	}
	seen := make(map[[2]uint64]bool)
	var out []namedGraph
	for _, gp := range groups {
		for _, c := range m.mergeCands[gp.lo:gp.hi] {
			edges := append(image(ws[c.a].p, c.ea), image(ws[c.b].p, c.eb)...)
			graph.SortEdges(edges)
			edges = slices.Compact(edges)
			h := canon.HashEdges(edges)
			if seen[h] {
				continue
			}
			seen[h] = true
			ug, _ := m.g.SubgraphOfEdges(edges)
			out = append(out, namedGraph{fmt.Sprintf("baunion%d", len(out)), ug})
			if len(out) == limit {
				return out
			}
		}
	}
	return out
}

// TestRefineMatchesReference: canon's word-level refinement splits every
// corpus graph's vertices into exactly the classes the reference kernel
// does after its last round, so MapColored's candidate groups, its search
// order and every mapping it returns are the reference kernel's. It also
// checks that Invariant is equal across random relabelings of each graph.
func TestRefineMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range refineCorpus(t) {
		got, want := canon.VertexColors(c.g), refineReference(c.g)
		if !samePartition(got, want) {
			t.Fatalf("%s (n=%d m=%d): refinement partition differs from the reference kernel's", c.name, c.g.N(), c.g.M())
		}
		inv := canon.Invariant(c.g)
		for i := 0; i < 3; i++ {
			if h := relabel(c.g, rng); canon.Invariant(h) != inv {
				t.Fatalf("%s (n=%d m=%d): Invariant differs on a relabeled copy", c.name, c.g.N(), c.g.M())
			}
		}
	}
}

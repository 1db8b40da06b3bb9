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

// imageHashReference is the ImageHash the set hash replaced, kept as the
// oracle: the image's host edges sorted, then hashed in order by
// canon.HashEdges. Never optimize it.
func imageHashReference(p *graph.Graph, m canon.Mapping) [2]uint64 {
	edges := canon.AppendMappedEdges(nil, p, m)
	graph.SortEdges(edges)
	return canon.HashEdges(edges)
}

// firstSame returns, per embedding, the index of the first embedding whose
// image hashes alike: the dedupe decisions a hash set makes.
func firstSame(p *graph.Graph, embs []pattern.Embedding, hash func(*graph.Graph, canon.Mapping) [2]uint64) []int {
	seen := map[[2]uint64]int{}
	out := make([]int, len(embs))
	for i, e := range embs {
		h := hash(p, canon.Mapping(e))
		j, ok := seen[h]
		if !ok {
			seen[h], j = i, i
		}
		out[i] = j
	}
	return out
}

// permuted returns p with its vertex ids permuted and the embeddings
// rewritten to match: the same images, with every edge listed in another
// order.
func permuted(p *graph.Graph, embs []pattern.Embedding, rng *rand.Rand) (*graph.Graph, []pattern.Embedding) {
	perm := rng.Perm(p.N())
	labels := make([]graph.Label, p.N())
	for v, pv := range perm {
		labels[pv] = p.Label(graph.V(v))
	}
	var edges []graph.Edge
	for _, e := range p.Edges() {
		edges = append(edges, graph.Edge{U: graph.V(perm[e.U]), W: graph.V(perm[e.W])})
	}
	out := make([]pattern.Embedding, len(embs))
	for i, e := range embs {
		out[i] = make(pattern.Embedding, len(e))
		for v, hv := range e {
			out[i][perm[v]] = hv
		}
	}
	return graph.FromEdges(labels, edges), out
}

type embSet struct {
	name string
	p    *graph.Graph
	embs []pattern.Embedding
}

// mappingsOf enumerates up to limit mappings of p into g, automorphic
// re-mappings of one image included, so the list holds duplicates.
func mappingsOf(name string, p, g *graph.Graph, limit int) embSet {
	s := embSet{name: name, p: p}
	canon.EnumerateEmbeddings(p, g, canon.MatchOptions{Limit: limit, Anchor: -1}, func(m canon.Mapping) bool {
		s.embs = append(s.embs, pattern.Embedding(m))
		return true
	})
	return s
}

// grid returns an r×c grid graph with labels from lab.
func grid(r, c int, lab func(i, j int) graph.Label) *graph.Graph {
	labels := make([]graph.Label, 0, r*c)
	var edges []graph.Edge
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			labels = append(labels, lab(i, j))
			v := graph.V(i*c + j)
			if j+1 < c {
				edges = append(edges, graph.Edge{U: v, W: v + 1})
			}
			if i+1 < r {
				edges = append(edges, graph.Edge{U: v, W: v + graph.V(c)})
			}
		}
	}
	return graph.FromEdges(labels, edges)
}

// imageHashCorpus returns embedding lists on hubs, grids, and the GID-1
// and BA working sets of stageCases: the raw seed embeddings before dedupe
// (which repeat images) and every grown pattern's list after one growth
// pass and a merge round.
func imageHashCorpus(t *testing.T) []embSet {
	var out []embSet
	one := func(int, int) graph.Label { return 0 }
	two := func(i, j int) graph.Label { return graph.Label((i + j) % 2) }

	// Hubs: a star of 40 leaves and a BA host's hubs, hosting stars whose
	// leaves are all interchangeable.
	hub := graph.NewBuilder(41, 40)
	h := hub.AddVertex(1)
	for i := 0; i < 40; i++ {
		hub.AddEdge(h, hub.AddVertex(0))
	}
	hubG := hub.Build()
	for k := 2; k <= 4; k++ {
		labels := append([]graph.Label{1}, make([]graph.Label, k)...)
		var edges []graph.Edge
		for i := 1; i <= k; i++ {
			edges = append(edges, graph.Edge{U: 0, W: graph.V(i)})
		}
		out = append(out, mappingsOf(fmt.Sprintf("hub/star%d", k), graph.FromEdges(labels, edges), hubG, 20000))
	}
	ba := gen.BarabasiAlbert(300, 3, 1, rand.New(rand.NewSource(5)))
	out = append(out, mappingsOf("ba-hubs/star3", graph.FromEdges([]graph.Label{0, 0, 0, 0},
		[]graph.Edge{{U: 0, W: 1}, {U: 0, W: 2}, {U: 0, W: 3}}), ba, 20000))

	// Grids: squares, dominoes and paths in 1- and 2-labelled grids.
	for _, lab := range []struct {
		name string
		f    func(int, int) graph.Label
	}{{"grid1", one}, {"grid2", two}} {
		host := grid(8, 8, lab.f)
		out = append(out,
			mappingsOf(lab.name+"/square", grid(2, 2, lab.f), host, 20000),
			mappingsOf(lab.name+"/domino", grid(2, 3, lab.f), host, 20000),
			mappingsOf(lab.name+"/path4", grid(1, 4, lab.f), host, 20000),
		)
	}

	// Working sets.
	for _, ws := range stageCases() {
		m, M := stagedMiner(t, ws.g, ws.cfg)
		var set []*grown
		for i, p := range drawSeeds(t, m, M) {
			out = append(out, embSet{fmt.Sprintf("%s/seed%d", ws.name, i), p.G, slices.Clone(p.Emb)})
			p.DedupeEmbeddings()
			if m.supFn(p.G, p.Emb) >= m.cfg.MinSupport {
				set = append(set, &grown{p: p, radius: 1})
			}
		}
		if _, err := m.growAll(set); err != nil {
			t.Fatal(err)
		}
		set, err := m.checkMerges(set)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range set {
			out = append(out, embSet{fmt.Sprintf("%s/grown%d", ws.name, w.p.ID), w.p.G, w.p.Emb})
		}
	}
	return out
}

// TestImageHashMatchesReference: the set hash makes exactly the dedupe
// decisions of the sort-then-FNV reference on every embedding list of the
// corpus, and hashes an image alike however its pattern lists the edges.
func TestImageHashMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	embs, dups := 0, 0
	for _, s := range imageHashCorpus(t) {
		got := firstSame(s.p, s.embs, canon.ImageHash)
		want := firstSame(s.p, s.embs, imageHashReference)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: set-hash dedupe %v, reference %v", s.name, got, want)
		}
		pp, pe := permuted(s.p, s.embs, rng)
		for i := range s.embs {
			if canon.ImageHash(s.p, canon.Mapping(s.embs[i])) != canon.ImageHash(pp, canon.Mapping(pe[i])) {
				t.Fatalf("%s: embedding %d hashes differently with the pattern's edges reordered", s.name, i)
			}
			if got[i] != i {
				dups++
			}
		}
		embs += len(s.embs)
	}
	t.Logf("%d embeddings, %d duplicate images", embs, dups)
	if dups == 0 {
		t.Fatal("corpus holds no duplicate images")
	}
}

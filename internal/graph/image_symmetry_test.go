package graph

import (
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// csrImage seals raw neighbor lists into an SPC1 image whose sketches
// are recomputed from each vertex's own list and whose checksums are
// valid, so only the verifier's structural and symmetry checks stand
// between it and an open. The lists need not be symmetric.
func csrImage(labels []Label, lists [][]V) []byte {
	g := &Graph{labels: labels, offs: make([]int32, len(lists)+1)}
	for v, l := range lists {
		g.nbrs = append(g.nbrs, l...)
		g.offs[v+1] = int32(len(g.nbrs))
	}
	g.m = len(g.nbrs) / 2
	return g.AppendImage(nil)
}

// asymmetricImages are two images with sorted, in-range lists, matching
// sketches and valid checksums whose adjacency is not symmetric, each
// with its symmetric twin. Image (a) hides its asymmetry in entries
// below their vertex: 2 lists 0 and 1, neither lists 2. Image (b) hides
// it behind Graph.HasEdge, which searches the shorter list: 3 does not
// list 0, yet HasEdge(0, 3) and HasEdge(3, 0) both find 3 in 0's list.
func asymmetricImages() []struct {
	name        string
	labels      []Label
	lists, twin [][]V
} {
	return []struct {
		name        string
		labels      []Label
		lists, twin [][]V
	}{
		{
			name:   "a",
			labels: []Label{1, 2, 3},
			lists:  [][]V{{1}, {0}, {0, 1}},
			twin:   [][]V{{1, 2}, {0, 2}, {0, 1}},
		},
		{
			name:   "b",
			labels: []Label{1, 2, 3, 2, 1},
			lists:  [][]V{{3}, {2, 3}, {1, 3}, {1, 2}, {1}},
			twin:   [][]V{{3}, {2, 3, 4}, {1, 3}, {0, 1, 2}, {1}},
		},
	}
}

// TestOpenImageRejectsAsymmetric: both verified opens reject an image
// whose adjacency is not symmetric, including the two shapes the
// shorter-list HasEdge check passed, and open their symmetric twins.
func TestOpenImageRejectsAsymmetric(t *testing.T) {
	for _, tc := range asymmetricImages() {
		t.Run(tc.name, func(t *testing.T) {
			img := csrImage(tc.labels, tc.lists)
			if _, err := OpenImage(img); !errors.Is(err, ErrBadImage) {
				t.Errorf("OpenImage: got %v, want ErrBadImage", err)
			}
			path := filepath.Join(t.TempDir(), "asym.spc1")
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := OpenMapped(path); !errors.Is(err, ErrBadImage) {
				t.Errorf("OpenMapped: got %v, want ErrBadImage", err)
			}

			twin, err := OpenImage(csrImage(tc.labels, tc.twin))
			if err != nil {
				t.Fatalf("symmetric twin rejected: %v", err)
			}
			var edges []Edge
			for v, l := range tc.twin {
				for _, w := range l {
					if V(v) < w {
						edges = append(edges, Edge{V(v), w})
					}
				}
			}
			sameImageGraph(t, FromEdges(tc.labels, edges), twin)
		})
	}

	// Why HasEdge cannot verify an image: on (b) it answers true both ways
	// for a pair only one endpoint lists.
	b := asymmetricImages()[1]
	g, _, err := openImage(csrImage(b.labels, b.lists), false)
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 3) || !g.HasEdge(3, 0) || slices.Contains(g.Neighbors(3), 0) {
		t.Fatal("image (b) no longer shows the shorter-list HasEdge answering for a missing entry")
	}
}

// imageValidReference is the retained oracle for verifyImageGraph: the
// same invariants checked the plain way, with every directed entry v→w
// searched for in w's own list. Never optimize it.
func imageValidReference(g *Graph) bool {
	n := g.N()
	if g.offs[0] != 0 || int(g.offs[n]) != len(g.nbrs) {
		return false
	}
	for v := 0; v < n; v++ {
		if g.offs[v+1] < g.offs[v] {
			return false
		}
	}
	list := func(v V) []V { return g.nbrs[g.offs[v]:g.offs[v+1]] }
	for v := V(0); int(v) < n; v++ {
		var sk uint64
		for i, w := range list(v) {
			if w < 0 || int(w) >= n || w == v || (i > 0 && w <= list(v)[i-1]) {
				return false
			}
			sk = sketchAdd(sk, g.labels[w])
		}
		if sk != g.sketches[v] {
			return false
		}
	}
	for v := V(0); int(v) < n; v++ {
		for _, w := range list(v) {
			if _, ok := slices.BinarySearch(list(w), v); !ok {
				return false
			}
		}
	}
	return true
}

// baTestGraph grows a preferential-attachment host: each new vertex
// links to attach endpoints drawn from the list of edge endpoints so
// far, so a few hubs collect long lists (the graph package cannot
// import internal/gen).
func baTestGraph(n, attach, labels int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n, n*attach)
	var ends []V
	for v := 0; v < n; v++ {
		b.AddVertex(Label(rng.Intn(labels)))
		for i := 0; i < attach && v > 0; i++ {
			w := V(rng.Intn(v))
			if len(ends) > 0 {
				w = ends[rng.Intn(len(ends))]
			}
			b.AddEdge(V(v), w)
			ends = append(ends, V(v), w)
		}
	}
	return b.Build()
}

// mutateCSR changes one entry of g's CSR: a neighbor moved inside the
// gap its list leaves for it (the list stays sorted), a neighbor set to
// any value, or an interior offset shifted by one (an entry changes
// lists). The sketches are then recomputed from the mutated lists
// wherever they are in range, so the mutation reaches the symmetry
// check instead of failing the sketch check.
func mutateCSR(g *Graph, rng *rand.Rand) *Graph {
	h := &Graph{m: g.m, labels: g.labels, offs: slices.Clone(g.offs), nbrs: slices.Clone(g.nbrs)}
	n := h.N()
	switch k := rng.Intn(3); {
	case k == 2 && n > 1:
		v := 1 + rng.Intn(n-1)
		h.offs[v] += int32(2*rng.Intn(2) - 1)
	case len(h.nbrs) > 0:
		i := rng.Intn(len(h.nbrs))
		v := V(0)
		for h.offs[v+1] <= int32(i) {
			v++
		}
		lo, hi := V(-1), V(n)
		if int32(i) > h.offs[v] {
			lo = h.nbrs[i-1]
		}
		if int32(i+1) < h.offs[v+1] {
			hi = h.nbrs[i+1]
		}
		x := V(rng.Intn(n))
		if k == 0 && hi-lo > 1 {
			x = lo + 1 + V(rng.Intn(int(hi-lo-1)))
		}
		h.nbrs[i] = x
	}
	h.sketches = make([]uint64, n)
	for v := 0; v < n; v++ {
		lo, hi := h.offs[v], h.offs[v+1]
		if lo < 0 || hi < lo || int(hi) > len(h.nbrs) {
			continue
		}
		for _, w := range h.nbrs[lo:hi] {
			if w >= 0 && int(w) < n {
				h.sketches[v] = sketchAdd(h.sketches[v], h.labels[w])
			}
		}
	}
	return h
}

// TestOpenImageSymmetryMatchesReference: on random and preferential-
// attachment hosts, and on single-entry mutations of them re-sealed with
// valid sketches and checksums, OpenImage accepts exactly the images
// imageValidReference accepts.
func TestOpenImageSymmetryMatchesReference(t *testing.T) {
	hosts := map[string]*Graph{
		"random":   randomTestGraph(300, 1200, 8, 5),
		"random2":  randomTestGraph(1000, 5000, 3, 6),
		"ba":       baTestGraph(2000, 4, 20, 7),
		"ba-dense": baTestGraph(300, 12, 5, 8),
		"star":     imageTestGraphs()["star"],
	}
	trials := 400
	if testing.Short() {
		trials = 60
	}
	for name, g := range hosts {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(len(name))))
			rejected := 0
			for i := 0; i <= trials; i++ {
				h := g
				if i > 0 {
					h = mutateCSR(g, rng)
				}
				img := h.AppendImage(nil)
				_, err := OpenImage(img)
				if want := imageValidReference(h); (err == nil) != want {
					t.Fatalf("trial %d: OpenImage err=%v, reference accepts=%v", i, err, want)
				}
				if err != nil {
					rejected++
				}
			}
			if rejected == 0 {
				t.Fatal("no mutation was rejected; the mutations test nothing")
			}
		})
	}
}

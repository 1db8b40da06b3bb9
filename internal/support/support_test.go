package support

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/pattern"
)

func edgePattern() *graph.Graph {
	return graph.FromEdges([]graph.Label{0, 0}, []graph.Edge{{U: 0, W: 1}})
}

func TestMeasuresOnDisjointEmbeddings(t *testing.T) {
	pg := edgePattern()
	embs := []pattern.Embedding{{0, 1}, {2, 3}, {4, 5}}
	for _, m := range []Measure{CountAll, EdgeDisjoint, HarmfulOverlap, VertexDisjoint} {
		if got := Of(pg, embs, m); got != 3 {
			t.Errorf("%v on disjoint embeddings: got %d, want 3", m, got)
		}
	}
}

func TestEdgeDisjointSharedEdge(t *testing.T) {
	// Two P3 embeddings sharing one edge.
	pg := graph.FromEdges([]graph.Label{0, 0, 0}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	embs := []pattern.Embedding{{0, 1, 2}, {2, 1, 3}} // share edge 1-2
	if got := Of(pg, embs, EdgeDisjoint); got != 1 {
		t.Fatalf("edge-disjoint: got %d, want 1", got)
	}
	if got := Of(pg, embs, CountAll); got != 2 {
		t.Fatalf("count-all: got %d, want 2", got)
	}
}

func TestVertexDisjointSharedVertexOnly(t *testing.T) {
	pg := edgePattern()
	// Share vertex 1, no shared edge.
	embs := []pattern.Embedding{{0, 1}, {1, 2}}
	if got := Of(pg, embs, VertexDisjoint); got != 1 {
		t.Fatalf("vertex-disjoint: got %d, want 1", got)
	}
	if got := Of(pg, embs, EdgeDisjoint); got != 2 {
		t.Fatalf("edge-disjoint: got %d, want 2 (no edge shared)", got)
	}
}

func TestHarmfulOverlapEquivalentPositions(t *testing.T) {
	// Pattern: 0-0 edge; both positions are WL-equivalent. Embeddings
	// sharing any vertex harmfully overlap.
	pg := edgePattern()
	embs := []pattern.Embedding{{0, 1}, {1, 2}}
	if got := Of(pg, embs, HarmfulOverlap); got != 1 {
		t.Fatalf("harmful overlap (equivalent positions): got %d, want 1", got)
	}
}

func TestHarmfulOverlapInequivalentPositions(t *testing.T) {
	// Pattern 1-2 edge: positions carry different labels, so sharing a
	// host vertex across *different* positions is harmless.
	pg := graph.FromEdges([]graph.Label{1, 2}, []graph.Edge{{U: 0, W: 1}})
	// host vertex 5 plays position 0 (label 1) in e1 and position 0 in e2
	// would clash; instead let 5 appear at different positions — but the
	// labels differ so no single host vertex can legally appear at both
	// positions. Use embeddings sharing nothing at equivalent slots:
	embs := []pattern.Embedding{{5, 6}, {7, 6}} // share host 6 at the SAME position 1
	if got := Of(pg, embs, HarmfulOverlap); got != 1 {
		t.Fatalf("same-position sharing must be harmful: got %d", got)
	}
	embs2 := []pattern.Embedding{{5, 6}, {8, 9}}
	if got := Of(pg, embs2, HarmfulOverlap); got != 2 {
		t.Fatalf("disjoint embeddings: got %d, want 2", got)
	}
}

func TestOfPattern(t *testing.T) {
	p := pattern.New(edgePattern(), []pattern.Embedding{{0, 1}, {2, 3}})
	if Of(p.G, p.Emb, CountAll) != 2 {
		t.Fatal("Of on a Pattern wrong")
	}
}

func TestTransactionSupport(t *testing.T) {
	txOf := []int{0, 0, 1, 1, 2}
	embs := []pattern.Embedding{{0, 1}, {2, 3}, {0, 1}}
	if got := TransactionSupport(embs, txOf); got != 2 {
		t.Fatalf("tx support: got %d, want 2", got)
	}
	if got := TransactionSupport(nil, txOf); got != 0 {
		t.Fatalf("empty: got %d", got)
	}
}

func TestMeasureString(t *testing.T) {
	for m, want := range map[Measure]string{
		CountAll:       "all-embeddings",
		EdgeDisjoint:   "edge-disjoint",
		HarmfulOverlap: "harmful-overlap",
		VertexDisjoint: "vertex-disjoint",
		Measure(99):    "unknown",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m.String(), want)
		}
	}
}

// Property: for any embedding set, VertexDisjoint <= EdgeDisjoint <=
// CountAll and VertexDisjoint <= HarmfulOverlap <= CountAll (the measures
// form a refinement hierarchy).
func TestQuickMeasureHierarchy(t *testing.T) {
	pg := graph.FromEdges([]graph.Label{0, 0, 0}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nEmb := 1 + rng.Intn(12)
		hostRange := 6 + rng.Intn(10)
		seen := map[string]bool{}
		var embs []pattern.Embedding
		for i := 0; i < nEmb; i++ {
			perm := rng.Perm(hostRange)[:3]
			e := pattern.Embedding{graph.V(perm[0]), graph.V(perm[1]), graph.V(perm[2])}
			k := e.ImageKey(pg)
			if seen[k] {
				continue
			}
			seen[k] = true
			embs = append(embs, e)
		}
		all := Of(pg, embs, CountAll)
		ed := Of(pg, embs, EdgeDisjoint)
		ho := Of(pg, embs, HarmfulOverlap)
		vd := Of(pg, embs, VertexDisjoint)
		return vd <= ed && ed <= all && vd <= ho && ho <= all && vd >= boolToInt(len(embs) > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
	// Regression: this seed produced a greedy harmful-overlap bound
	// *below* the vertex-disjoint one (an early pick blocked three
	// later, mutually vertex-disjoint embeddings) before the measures
	// took the max with the vertex-disjoint greedy.
	if !f(-4170806068862583888) {
		t.Error("hierarchy violated on the recorded regression seed")
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Property: all measures are monotone under adding embeddings (support of
// a subset is <= support of the superset) for the greedy scan order used.
func TestQuickSubsetMonotonicity(t *testing.T) {
	pg := edgePattern()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		hostRange := 8 + rng.Intn(8)
		var embs []pattern.Embedding
		seen := map[string]bool{}
		for i := 0; i < 10; i++ {
			u := graph.V(rng.Intn(hostRange))
			w := graph.V(rng.Intn(hostRange))
			if u == w {
				continue
			}
			e := pattern.Embedding{u, w}
			k := e.ImageKey(pg)
			if seen[k] {
				continue
			}
			seen[k] = true
			embs = append(embs, e)
		}
		if len(embs) < 2 {
			return true
		}
		sub := embs[:len(embs)/2]
		// CountAll is exactly monotone; greedy MIS measures are monotone
		// up to the greedy's 1-approximation; we assert the weak bound
		// that the full set supports at least half the subset's count.
		return Of(pg, embs, CountAll) >= Of(pg, sub, CountAll) &&
			2*Of(pg, embs, EdgeDisjoint) >= Of(pg, sub, EdgeDisjoint)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

package spidermine

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/pattern"
)

// TestGrowScratchWarmNoAlloc pins scratch reuse in the grow engine: a warm
// growScratch evaluating an extension that fails (here on support) must
// not allocate. The availability tables, greedy counts, survivor
// ping-pong buffers, and the pooled Builder are all epoch-marked or
// length-reset, so any allocation means one of them regressed to per-call
// churn.
func TestGrowScratchWarmNoAlloc(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 3, Dmax: 6}) // σ=3 but only 2 sites: extendAt fails after full evaluation
	pg := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	sc := m.growWS.For(1)[0]
	if m.extendAt(p, 0, sc) { // warm every buffer first
		t.Fatal("extension above support threshold")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if m.extendAt(p, 0, sc) {
			t.Fatal("extension above support threshold")
		}
	})
	if allocs != 0 {
		t.Errorf("warm failing extendAt allocates %.1f/op, want 0", allocs)
	}
}

// TestGrowScratchWarmGrowPattern: a full warm growPattern pass on a
// pattern whose every boundary extension fails must also be
// allocation-free (boundary buffer + per-vertex scratch reuse). The
// boundary BFS runs in the worker's own scratch, never in a sync.Pool,
// so this holds under -race too, where pools drop items at random.
func TestGrowScratchWarmGrowPattern(t *testing.T) {
	g := growHost()
	m := minerFor(g, Config{MinSupport: 3, Dmax: 6})
	pg := graph.FromEdges([]graph.Label{9, 1}, []graph.Edge{{U: 0, W: 1}})
	p := pattern.New(pg, []pattern.Embedding{{0, 1}, {5, 6}})
	p.Origin = 0
	w := &grown{p: p, radius: 1}
	sc := m.growWS.For(1)[0]
	if m.growPattern(w, sc) {
		t.Fatal("growth above support threshold")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if m.growPattern(w, sc) {
			t.Fatal("growth above support threshold")
		}
	})
	if allocs != 0 {
		t.Errorf("warm failing growPattern allocates %.1f/op, want 0", allocs)
	}
}

// TestMergeScratchWarmNoAlloc pins scratch reuse in the merge engine: a
// warm tryMerge over a candidate group whose unions all either repeat an
// earlier union or fail Dmax must not allocate. The merged union, the
// union-hash set, the in-place union subgraph and the BFS are all
// length-reset worker scratch, and the parent images are read from the
// round's arena; only a union that founds a bucket (a clone) or joins one
// (a retained embedding) may allocate.
func TestMergeScratchWarmNoAlloc(t *testing.T) {
	// Host: a labeled path 0-1-...-8. Both parents are 3-vertex paths, so
	// every union of two overlapping images is a 5-vertex path of
	// diameter 4, beyond Dmax = 3.
	labels := make([]graph.Label, 9)
	var edges []graph.Edge
	for v := 0; v+1 < len(labels); v++ {
		edges = append(edges, graph.Edge{U: graph.V(v), W: graph.V(v + 1)})
	}
	g := graph.FromEdges(labels, edges)
	m := minerFor(g, Config{MinSupport: 2, Dmax: 3})
	pg := graph.FromEdges([]graph.Label{0, 0, 0}, []graph.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	pa := pattern.New(pg, []pattern.Embedding{{0, 1, 2}, {4, 5, 6}})
	pb := pattern.New(pg, []pattern.Embedding{{2, 3, 4}, {4, 3, 2}})
	cands := []mergeCand{
		{a: 0, b: 1, ea: 0, eb: 0}, // union 0..4: fails Dmax
		{a: 0, b: 1, ea: 0, eb: 1}, // same image reversed: a repeat
		{a: 0, b: 1, ea: 1, eb: 0}, // union 2..6: fails Dmax
		{a: 0, b: 1, ea: 1, eb: 1}, // a repeat
	}
	ws := []*grown{{p: pa}, {p: pb}}
	m.images.prepare(ws, []int32{0, 2, 4}, []pairGroup{{pk: pairKey{0, 1}, hi: int32(len(cands))}}, cands)
	sc := m.mergeWS.For(1)[0]
	var isoRun int64
	if m.tryMerge(&m.images, cands, sc, &isoRun) != nil { // warm every buffer first
		t.Fatal("merge accepted a union beyond Dmax")
	}
	allocs := testing.AllocsPerRun(20, func() {
		if m.tryMerge(&m.images, cands, sc, &isoRun) != nil {
			t.Fatal("merge accepted a union beyond Dmax")
		}
	})
	if allocs != 0 {
		t.Errorf("warm failing tryMerge allocates %.1f/op, want 0", allocs)
	}
}

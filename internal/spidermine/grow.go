package spidermine

import (
	"math"
	"slices"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pattern"
)

// growAll runs one SpiderGrow iteration over every working pattern on
// par.Do (inline at one worker), reporting whether any pattern was
// extended. Each pattern is grown independently against shared-immutable
// state (host graph, frequent-pair index) with worker-owned scratch, so
// the result is the same for any worker count; progress flags are
// worker-indexed and reduced after the join.
//
// On cancellation growAll returns ctx.Err() with the pass partially
// applied; the caller rolls back to its last committed snapshot. par.Do
// checks before every pattern, and not at all for uncancellable runs.
func (m *Miner) growAll(ws []*grown) (bool, error) {
	workers := m.workerCount(len(ws))
	scs := m.growWS.For(workers)
	grew := m.anyFlag.For(workers)
	if err := par.Do(m.ctx, len(ws), workers, func(wk, i int) {
		w := ws[i]
		if w.done {
			return
		}
		if m.growPattern(w, scs[wk]) {
			grew[wk] = true
		} else {
			w.done = true
		}
	}); err != nil {
		return false, err
	}
	return slices.Contains(grew, true), nil
}

// growPattern performs one radius-increasing growth step (Algorithm 2 +
// Algorithm 3): at every boundary vertex, append the maximal frequent
// spider extension. Returns whether the pattern gained any vertex. sc is
// the caller-owned extension scratch — one per worker, so growPattern may
// run on parallel workers against disjoint patterns.
//
// SpiderExtend's two invariants are enforced:
//   - Maximal overlap: the appended spider is the largest frequent star at
//     the boundary image (greedy maximal leaf multiset).
//   - Internal integrity: only edges from the boundary vertex to new
//     vertices are added; the interior of P is untouched.
func (m *Miner) growPattern(w *grown, sc *growScratch) bool {
	p := w.p
	sc.boundary = p.AppendBoundary(&sc.bfs, sc.boundary[:0], w.radius)
	sc.eccLB = fitZero(sc.eccLB, p.NV())
	grewAny := false
	for _, b := range sc.boundary {
		if int(b) >= p.NV() {
			continue // pattern graph replaced with fewer vertices (defensive)
		}
		if m.extendAt(p, b, sc) {
			grewAny = true
		}
	}
	sc.eccLB = sc.eccLB[:0]
	if grewAny {
		// Growth adds one ring of leaves per pass regardless of the seed
		// radius (stars are the growth unit; cfg.Radius only shapes the
		// Stage I seed population), so the frontier advances by exactly 1.
		w.radius++
	}
	return grewAny
}

// labVert is one candidate (leaf label, host vertex) observation during
// the per-embedding availability scan; the label is its position in the
// head's frequent-leaf run.
type labVert struct {
	idx int32
	v   graph.V
}

// labRange is one label group of an embedding's candidate table: the host
// vertices sc.vbuf[lo:hi] (ascending) can supply the leaf label at position
// idx of the head's frequent-leaf run. Ranges into the flat buffer replace
// the historical per-embedding []labCand slices-of-slices, so the whole
// availability table is three reused flat allocations however many
// embeddings a pattern carries.
type labRange struct {
	idx, lo, hi int32
}

// growScratch is per-worker extension state, owned by exactly one worker
// for the duration of a growth pass (m.growWS.For). mark is an
// epoch-stamped host-vertex set (no clearing between embeddings, just a
// new epoch); everything else is reused buffers truncated per call, so a
// warm growth pass allocates only what the grown pattern retains (its new
// graph and embedding storage). The boundary search, the eccentricity
// guard and the diameter check all run in bfs, never in pooled scratch.
//
// Labels are indexed by their position in the head's frequent-leaf run
// (freqLeavesOf), never by value: labels are arbitrary int32s, and the run
// is sorted, so ascending positions are ascending labels.
type growScratch struct {
	mark  []int32
	epoch int32

	boundary []graph.V
	bfs      graph.BFS

	// Availability table, rebuilt per extendAt call: per-embedding runs of
	// label groups (gOff offsets into groups) whose candidate vertices are
	// ranges into vbuf. lv is the per-embedding collect+sort buffer.
	lv     []labVert
	groups []labRange
	gOff   []int32
	vbuf   []graph.V

	// Greedy multiset state: chosen[i] leaves of run label i picked so far
	// and counts[i] the surviving embeddings that can take one more, both
	// of the run's length; surv/keep ping-pong embedding index lists,
	// subEmbs the support-probe slice.
	chosen  []int32
	counts  []int32
	surv    []int32
	keep    []int32
	subEmbs []pattern.Embedding

	// eccLB holds lower bounds on the eccentricities of the pattern's
	// vertices, raised by every guard BFS (graph.BFS.EccentricityRaising).
	// It is sized and zeroed at the start of a growPattern pass and empty
	// outside one: never carried to the next pass, because a merge between
	// passes may replace the pattern's graph, and never consulted by a
	// direct extendAt call.
	eccLB []int32
	// guardSeen, when set (tests only), observes every eccentricity-guard
	// decision: whether b was rejected, and whether the bounds decided it
	// without a BFS.
	guardSeen func(g *graph.Graph, b graph.V, reject, byBound bool)

	// Image-dedupe set (128-bit image hashes stand in for ImageKey strings,
	// the accepted collision trade-off, see canon.ImageHash), plus the
	// pooled graph builder for the extended pattern.
	seen map[[2]uint64]struct{}
	b    graph.Builder
}

// groupOf returns the candidate vertices for run label idx at embedding
// ei, or nil (the linear scan mirrors the historical candOf: label counts
// per head are small).
func (sc *growScratch) groupOf(ei, idx int32) []graph.V {
	for _, lr := range sc.groups[sc.gOff[ei]:sc.gOff[ei+1]] {
		if lr.idx == idx {
			return sc.vbuf[lr.lo:lr.hi]
		}
	}
	return nil
}

// leafPastDmax is extendAt's diameter guard: appending a leaf at b yields
// diameter max(diam, ecc(b)+1, 2), so b may not grow once ecc(b)+1 > Dmax
// (Definition 2 demands diam(P) <= Dmax, so growth in that direction
// cannot lead to a valid result pattern). Inside a growPattern pass a
// lower bound from an earlier guard BFS that already reaches Dmax rejects
// b without a BFS of its own: ecc(b) is at least the bound, so the BFS
// would reject too. Bounds never accept.
func (m *Miner) leafPastDmax(g *graph.Graph, b graph.V, sc *growScratch) bool {
	byBound := int(b) < len(sc.eccLB) && int(sc.eccLB[b]) >= m.cfg.Dmax
	reject := byBound || sc.bfs.EccentricityRaising(g, b, sc.eccLB)+1 > m.cfg.Dmax
	if sc.guardSeen != nil {
		sc.guardSeen(g, b, reject, byBound)
	}
	return reject
}

// fitZero returns buf resized to n zeroed entries, reusing its storage.
// It grows the slice and then clears it: appending a fresh zero slice
// would allocate under -race, where the compiler cannot elide it.
func fitZero(buf []int32, n int) []int32 {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// extendAt grows pattern p at boundary vertex b by the maximal frequent
// leaf multiset, mutating p (graph, embeddings, caches) in place.
// Returns whether at least one leaf was added.
func (m *Miner) extendAt(p *pattern.Pattern, b graph.V, sc *growScratch) bool {
	if len(p.Emb) == 0 {
		return false
	}
	if m.leafPastDmax(p.G, b, sc) {
		return false
	}
	headLabel := p.G.Label(b)
	// Frequent leaf labels for this head, resolved once from the flat pair
	// index; an empty run means no extension can be frequent.
	run := m.freqLeavesOf(headLabel)
	if len(run) == 0 {
		return false
	}

	// Availability: per embedding, the candidate new-leaf host vertices
	// grouped by label — host neighbors of the image of b that are outside
	// the embedding image and form a frequent (head,leaf) spider pair.
	// Vertex lists inherit the host CSR's ascending order (the (idx, v)
	// sort below is within-label stable on an already v-ascending scan).
	if cap(sc.mark) < m.g.N() {
		sc.mark = make([]int32, m.g.N())
		sc.epoch = 0
	}
	sc.mark = sc.mark[:m.g.N()]
	// Epoch wraparound guard: this call consumes one epoch per embedding;
	// if that could reach stamps left by long-dead embeddings, clear and
	// restart rather than alias them.
	if sc.epoch > math.MaxInt32-int32(len(p.Emb))-1 {
		clear(sc.mark[:cap(sc.mark)])
		sc.epoch = 0
	}
	nEmb := len(p.Emb)
	if cap(sc.gOff) < nEmb+1 {
		sc.gOff = make([]int32, nEmb+1)
	}
	sc.gOff = sc.gOff[:nEmb+1]
	sc.groups = sc.groups[:0]
	sc.vbuf = sc.vbuf[:0]
	for i, e := range p.Emb {
		sc.epoch++
		for _, hv := range e {
			sc.mark[hv] = sc.epoch
		}
		sc.gOff[i] = int32(len(sc.groups))
		lv := sc.lv[:0]
		for _, nb := range m.g.Neighbors(e[b]) {
			if sc.mark[nb] == sc.epoch {
				continue
			}
			idx, ok := leafIndex(run, m.g.Label(nb))
			if !ok {
				continue
			}
			lv = append(lv, labVert{int32(idx), nb})
		}
		slices.SortFunc(lv, func(x, y labVert) int {
			if x.idx != y.idx {
				return int(x.idx) - int(y.idx)
			}
			return int(x.v) - int(y.v)
		})
		sc.lv = lv
		for j := 0; j < len(lv); {
			k := j
			lo := int32(len(sc.vbuf))
			for k < len(lv) && lv[k].idx == lv[j].idx {
				sc.vbuf = append(sc.vbuf, lv[k].v)
				k++
			}
			sc.groups = append(sc.groups, labRange{idx: lv[j].idx, lo: lo, hi: int32(len(sc.vbuf))})
			j = k
		}
	}
	sc.gOff[nEmb] = int32(len(sc.groups))

	// Greedy maximal frequent multiset: repeatedly add the label that the
	// most surviving embeddings can still host; stop when no label keeps
	// support >= σ.
	total := m.chooseLeaves(p, len(run), sc)
	if total == 0 {
		return false
	}

	// Build the extended pattern graph through the pooled builder: new
	// vertices appended after existing ones, one per chosen leaf, edges
	// b—leaf. The interior edges come straight off the CSR (u < w order,
	// exactly what Edges() yields) without materializing an edge list.
	sc.b.Reset(p.NV()+total, p.Size()+total)
	for v := 0; v < p.NV(); v++ {
		sc.b.AddVertex(p.G.Label(graph.V(v)))
	}
	for v := 0; v < p.NV(); v++ {
		for _, w := range p.G.Neighbors(graph.V(v)) {
			if graph.V(v) < w {
				sc.b.AddEdge(graph.V(v), w)
			}
		}
	}
	for i, n := range sc.chosen {
		for c := int32(0); c < n; c++ {
			leaf := sc.b.AddVertex(run[i].l)
			sc.b.AddEdge(b, leaf)
		}
	}
	newG := sc.b.Build()
	// Exact diameter check (the ecc pre-check above is necessary but not
	// sufficient once several boundary vertices have grown this pass).
	// For very large patterns the O(V·(V+E)) exact check is deferred to
	// the final top-K filter; the ecc guard alone bounds overshoot to +1.
	if newG.N() <= 256 && !sc.bfs.DiameterAtMost(newG, m.cfg.Dmax) {
		return false
	}

	// Extend surviving embeddings: per label, take the first chosen[i]
	// available neighbors in host-id order (labels with equal value are
	// interchangeable positions, so this is canonical; candidate ranges
	// are already host-id ascending). An embedding's label groups ascend by
	// run position, the order the leaves were added in. The extended
	// embeddings are carved out of one flat retained buffer — the appends
	// below can never exceed its pre-sized capacity, so the carved
	// sub-slices stay stable.
	lenE := p.NV()
	flat := make([]graph.V, 0, len(sc.surv)*(lenE+total))
	newEmbs := make([]pattern.Embedding, 0, len(sc.surv))
	for _, ei := range sc.surv {
		lo := len(flat)
		flat = append(flat, p.Emb[ei]...)
		for _, lr := range sc.groups[sc.gOff[ei]:sc.gOff[ei+1]] {
			if n := sc.chosen[lr.idx]; n > 0 && lr.hi-lr.lo >= n {
				flat = append(flat, sc.vbuf[lr.lo:lr.lo+n]...)
			}
		}
		if len(flat)-lo != lenE+total {
			flat = flat[:lo] // lacks a chosen label (defensive: survivors never do)
			continue
		}
		newEmbs = append(newEmbs, pattern.Embedding(flat[lo:len(flat):len(flat)]))
	}
	// Dedupe images before the final support check so overlapping
	// embeddings collapsing into one subgraph cannot fake support.
	if sc.seen == nil {
		sc.seen = make(map[[2]uint64]struct{}, len(newEmbs))
	} else {
		clear(sc.seen)
	}
	deduped := newEmbs[:0]
	for _, e := range newEmbs {
		h := canon.ImageHash(newG, canon.Mapping(e))
		if _, dup := sc.seen[h]; dup {
			continue
		}
		sc.seen[h] = struct{}{}
		deduped = append(deduped, e)
		if len(deduped) >= m.cfg.MaxEmbPerPattern {
			break
		}
	}
	if m.supFn(newG, deduped) < m.cfg.MinSupport {
		return false
	}
	p.G = newG
	p.Emb = deduped
	p.InvalidateCaches()
	return true
}

// chooseLeaves runs extendAt's greedy over the availability table in sc
// for a head whose frequent-leaf run has nRun labels: it repeatedly adds
// the run label that the most surviving embeddings can still host, ties
// toward the smallest label, while the survivors keep support >= σ. It
// leaves the multiset in sc.chosen (a count per run position) and the
// surviving embedding indices in sc.surv, and returns the leaves chosen.
func (m *Miner) chooseLeaves(p *pattern.Pattern, nRun int, sc *growScratch) int {
	sc.chosen = fitZero(sc.chosen, nRun)
	sc.counts = fitZero(sc.counts, nRun)
	chosen, counts := sc.chosen, sc.counts
	surv := sc.surv[:0]
	for i := range p.Emb {
		surv = append(surv, int32(i))
	}
	keep := sc.keep
	total := 0
	for {
		clear(counts)
		for _, ei := range surv {
			for _, lr := range sc.groups[sc.gOff[ei]:sc.gOff[ei+1]] {
				if lr.hi-lr.lo > chosen[lr.idx] {
					counts[lr.idx]++
				}
			}
		}
		// Best label: the highest count, and on a tie the smallest label,
		// which is the first run position to reach that count.
		best, bestCount := -1, int32(0)
		for i, c := range counts {
			if c > bestCount {
				best, bestCount = i, c
			}
		}
		if best < 0 {
			break
		}
		// Which embeddings survive if we add it?
		keep = keep[:0]
		for _, ei := range surv {
			if int32(len(sc.groupOf(ei, int32(best)))) > chosen[best] {
				keep = append(keep, ei)
			}
		}
		if m.embSupportIdx(p, keep, sc) < m.cfg.MinSupport {
			break
		}
		chosen[best]++
		total++
		surv, keep = keep, surv
	}
	sc.surv, sc.keep = surv, keep
	return total
}

// embSupportIdx computes σ-comparable support of the subset of p's
// embeddings given by indices, against p's current graph, through the
// scratch's reused probe slice.
func (m *Miner) embSupportIdx(p *pattern.Pattern, idx []int32, sc *growScratch) int {
	sub := sc.subEmbs[:0]
	for _, i := range idx {
		sub = append(sub, p.Emb[i])
	}
	sc.subEmbs = sub
	return m.supFn(p.G, sub)
}

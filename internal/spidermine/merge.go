package spidermine

import (
	"slices"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pattern"
)

// checkMerges detects pairs of working patterns whose embeddings overlap on
// host vertices and merges them when the union subgraph is frequent
// (Algorithm 4). The paper avoids pairwise checks by watching for the same
// spider (host head) being used by different patterns; we watch host-vertex
// usage, which is the materialized equivalent.
//
// A successful merge removes both parents from the working set and adds the
// merged pattern, marked Merged for Stage II pruning. The merged pattern's
// embeddings are the iso-consistent union images. Merges are accepted
// exactly as a walk over the groups in key order accepts them, skipping a
// group once an earlier merge has consumed either of its patterns (see
// mergeWaves), and are numbered and appended in key order.
//
// On cancellation checkMerges returns the input set unchanged together
// with ctx.Err(); the caller discards the round in favor of its committed
// snapshot.
func (m *Miner) checkMerges(ws []*grown) ([]*grown, error) {
	if len(ws) < 2 {
		return ws, nil
	}
	groups, err := m.mergeGroups(ws)
	if err != nil || len(groups) == 0 {
		return ws, err
	}
	consumed := m.consumed.For(len(ws))
	accepted, err := m.mergeWaves(ws, groups, consumed)
	if err != nil || len(accepted) == 0 {
		return ws, err
	}
	// A later wave can hold a group that precedes, in key order, a group of
	// an earlier wave, so the merges are numbered only now.
	slices.SortFunc(accepted, func(x, y waveItem) int {
		if x.gp.pk.a != y.gp.pk.a {
			return x.gp.pk.a - y.gp.pk.a
		}
		return x.gp.pk.b - y.gp.pk.b
	})
	out := make([]*grown, 0, len(ws))
	for i, w := range ws {
		if !consumed[i] {
			out = append(out, w)
		}
	}
	for _, it := range accepted {
		it.mp.ID = m.newID()
		m.stats.Merges++
		out = append(out, &grown{p: it.mp, radius: max(ws[it.gp.pk.a].radius, ws[it.gp.pk.b].radius)})
	}
	return out, nil
}

// mergeWaves evaluates the round's merge groups — sorted by pair key, as
// mergeGroups returns them — and returns the accepted merges, in no
// particular order, each with its group, in a buffer the next round
// reuses; the merged patterns' IDs are unassigned. consumed (zeroed, one
// flag per pattern of ws) ends up marking the patterns the accepted
// merges consumed.
//
// The key-order walk of Algorithm 4 skips a group exactly when an earlier
// group that shares a pattern with it has merged. So once every earlier
// group sharing a pattern with a group is resolved, the group's fate is
// fixed: skipped if either pattern is consumed, evaluated otherwise. Each
// wave takes every group in that state, and its groups share no pattern,
// so no wave-mate can change another's fate. The waves therefore evaluate
// exactly the walk's groups and accept exactly its merges, for any worker
// count.
//
// A wave's gather scans the pending groups in key order: a group with a
// consumed pattern is resolved as skipped and dropped, a group with a
// pattern stamped in this wave stays pending, and any other group is
// ready; every group that is ready or stays pending stamps both its
// patterns. The first unresolved group is always ready, so every wave
// makes progress. The ready groups run through tryMerge on par.Do (inline
// at one worker, which checks for cancellation before every group), and
// then the patterns of the wave's merges are marked consumed. Pending
// groups are compacted in place in groups.
//
// On cancellation mergeWaves returns ctx.Err(); the round is discarded.
func (m *Miner) mergeWaves(ws []*grown, groups []pairGroup, consumed []bool) ([]waveItem, error) {
	workers := m.workerCount(len(groups))
	scs := m.mergeWS.For(workers)
	isoRuns := m.isoRuns.For(workers)
	stamp := m.waveStamp.For(len(ws))
	wave := m.wave[:0]
	eval := func(wk, i int) {
		gp := wave[i].gp
		wave[i].mp = m.tryMerge(ws[gp.pk.a].p, ws[gp.pk.b].p, m.mergeCands[gp.lo:gp.hi], scs[wk], &isoRuns[wk])
	}
	accepted := m.accepted[:0]
	var err error
	for n := int32(1); len(groups) > 0; n++ {
		wave = wave[:0]
		pending := groups[:0]
		for _, gp := range groups {
			a, b := gp.pk.a, gp.pk.b
			switch {
			case consumed[a] || consumed[b]:
				continue
			case stamp[a] == n || stamp[b] == n:
				pending = append(pending, gp)
			default:
				wave = append(wave, waveItem{gp: gp})
			}
			stamp[a], stamp[b] = n, n
		}
		groups = pending
		if err = par.Do(m.ctx, len(wave), m.workerCount(len(wave)), eval); err != nil {
			break
		}
		if m.waveSeen != nil {
			m.waveSeen(wave)
		}
		for _, it := range wave {
			if it.mp != nil {
				consumed[it.gp.pk.a], consumed[it.gp.pk.b] = true, true
				accepted = append(accepted, it)
			}
		}
	}
	m.wave, m.accepted = wave[:0], accepted[:0]
	for _, n := range isoRuns {
		m.stats.IsoRun += n
	}
	return accepted, err
}

// mergeGroups collects the round's merge candidates — overlapping
// (pattern pair, embedding pair) combinations of ws — into m.mergeCands,
// sorted by (a, b, ea, eb), and returns them cut into per-pattern-pair
// groups (also kept in m.pairGroups); nil when nothing overlaps.
//
// The pair scan checks for cancellation once per touched host vertex; on
// cancellation mergeGroups returns ctx.Err() with no groups and the usage
// index emptied, as a finished round leaves it. A fresh Miner's first
// round grows the candidate set from empty: on a small host that is the
// largest allocation of the mine and several milliseconds of work, which
// a cancel arriving meanwhile should not have to wait out.
func (m *Miner) mergeGroups(ws []*grown) ([]pairGroup, error) {
	// Overlap detection samples at most mergeScanEmb embeddings per pattern:
	// merging only needs *one* overlapping pair per site, and the usage
	// index otherwise grows as patterns × embeddings × pattern size.
	const mergeScanEmb = 256
	// mergePairCap bounds the overlapping embedding pairs examined per
	// pattern pair each round.
	const mergePairCap = 4096
	// usage is indexed by host vertex id and kept on the Miner across
	// rounds (checkMerges runs sequentially); only the touched entries are
	// filled and they are truncated again before the pair scan returns, so
	// each round is O(touched), not O(N).
	if len(m.mergeUsage) < m.g.N() {
		m.mergeUsage = make([][]usageSlot, m.g.N())
	}
	usage := m.mergeUsage
	touched := m.touched[:0]
	for wi, w := range ws {
		embs := w.p.Emb
		if len(embs) > mergeScanEmb {
			embs = embs[:mergeScanEmb]
		}
		for ei, e := range embs {
			for _, hv := range e {
				if len(usage[hv]) == 0 {
					touched = append(touched, hv)
				}
				usage[hv] = append(usage[hv], usageSlot{wi, ei})
			}
		}
	}
	m.touched = touched
	// Collect overlapping (pattern pair, embedding pair) candidates into
	// the flat reused list, deduplicated, with mergePairCap applied per
	// pattern pair in discovery order — exactly the set the historical
	// map-of-maps kept (first cap distinct embedding pairs per pattern
	// pair, in the order the usage scan surfaces them).
	if m.candSeen == nil {
		m.candSeen = make(map[mergeCand]struct{})
		m.pairCount = make(map[pairKey]int)
	} else {
		clear(m.candSeen)
		clear(m.pairCount)
	}
	cands := m.mergeCands[:0]
	for ti, hv := range touched {
		if m.done != nil {
			if err := m.cancelled(); err != nil {
				for _, v := range touched[ti:] {
					usage[v] = usage[v][:0]
				}
				return nil, err
			}
		}
		slots := usage[hv]
		usage[hv] = usage[hv][:0]
		if len(slots) < 2 {
			continue
		}
		for i := 0; i < len(slots); i++ {
			for j := i + 1; j < len(slots); j++ {
				a, b := slots[i], slots[j]
				if a.w == b.w {
					continue
				}
				if a.w > b.w {
					a, b = b, a
				}
				c := mergeCand{a: int32(a.w), b: int32(b.w), ea: int32(a.emb), eb: int32(b.emb)}
				if _, dup := m.candSeen[c]; dup {
					continue
				}
				pk := pairKey{a.w, b.w}
				if m.pairCount[pk] >= mergePairCap {
					continue
				}
				m.candSeen[c] = struct{}{}
				m.pairCount[pk]++
				cands = append(cands, c)
			}
		}
	}
	if len(cands) == 0 {
		m.mergeCands = cands
		return nil, nil
	}
	// Deterministic evaluation order: sort the flat list by
	// (a, b, ea, eb) and cut it into per-pattern-pair groups — the same
	// order the historical sorted-keys + per-key sorted-pairs walk
	// produced.
	slices.SortFunc(cands, func(x, y mergeCand) int {
		if x.a != y.a {
			return int(x.a) - int(y.a)
		}
		if x.b != y.b {
			return int(x.b) - int(y.b)
		}
		if x.ea != y.ea {
			return int(x.ea) - int(y.ea)
		}
		return int(x.eb) - int(y.eb)
	})
	m.mergeCands = cands
	groups := m.pairGroups[:0]
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j].a == cands[i].a && cands[j].b == cands[i].b {
			j++
		}
		groups = append(groups, pairGroup{pk: pairKey{int(cands[i].a), int(cands[i].b)}, lo: int32(i), hi: int32(j)})
		i = j
	}
	m.pairGroups = groups
	return groups, nil
}

// usageSlot names one embedding of one working pattern during overlap
// detection.
type usageSlot struct {
	w   int // index into ws
	emb int // embedding index
}

// pairKey identifies an unordered pair of working patterns (a < b, both
// indices into ws) during a merge round.
type pairKey struct{ a, b int }

// mergeCand is one merge candidate: patterns ws[a], ws[b] (a < b) overlap
// on embeddings Emb[ea], Emb[eb]. The flat sorted candidate list replaces
// the historical map[pairKey]map[embPair]struct{}.
type mergeCand struct{ a, b, ea, eb int32 }

// pairGroup is one pattern pair's contiguous run of candidates in the
// sorted mergeCands list.
type pairGroup struct {
	pk     pairKey
	lo, hi int32
}

// waveItem is one group of a merge wave and, once evaluated, its merged
// pattern (nil when no frequent union exists).
type waveItem struct {
	gp pairGroup
	mp *pattern.Pattern
}

// mbucket is one structure class of union subgraphs during tryMerge:
// representative graph, its WL colors, and its iso-consistent embeddings.
// Buckets are pooled per worker in mergeScratch; the winner's embs list is
// copied out, so the backing arrays recycle. repr is a clone of the union
// that founded the bucket, and colors/sorted are that union's refinement,
// kept so the representative is never refined again.
type mbucket struct {
	inv            uint64
	repr           *graph.Graph
	colors, sorted []uint64
	embs           []pattern.Embedding
}

// mergeScratch is one worker's tryMerge state: the prepared host images
// of the two parents' embeddings and their merged union, the union-hash
// dedupe set, the in-place union subgraph, the BFS scratch, the bucket
// pool, and the WL/isomorphism scratch. Owned by exactly one worker for
// the duration of a merge wave.
//
// An image is prepared once per distinct embedding per call: its edges
// sorted by (U, W) and its endpoints ascending. pa's current one lives in
// edgesA/vertsA (a group's candidates are sorted by (ea, eb), so each ea
// comes in one run). pb's are kept for the whole call: slotB[eb] is one
// plus the index into spansB of eb's image in edgesB/vertsB, or zero
// while eb is unprepared; tryMerge clears it on entry.
type mergeScratch struct {
	edgesA     []graph.Edge
	vertsA     []graph.V
	slotB      []int32
	spansB     []imageSpan
	edgesB     []graph.Edge
	vertsB     []graph.V
	unionEdges []graph.Edge
	unionVerts []graph.V
	seenUnions map[[2]uint64]struct{}
	sub        graph.SubgraphScratch
	bfs        graph.BFS
	buckets    []*mbucket
	iso        canon.Iso
}

// imageSpan locates one prepared image in mergeScratch's flat pb buffers.
type imageSpan struct{ e0, e1, v0, v1 int32 }

// appendImage appends the host image of embedding e of pattern graph p:
// its edges, sorted by (U, W), to edges, and their endpoints, ascending,
// to verts. Building a union sorts nothing else, and tryMerge runs these
// two sorts once per distinct parent embedding per call.
func appendImage(edges []graph.Edge, verts []graph.V, p *graph.Graph, e pattern.Embedding) ([]graph.Edge, []graph.V) {
	e0, v0 := len(edges), len(verts)
	edges = canon.AppendMappedEdges(edges, p, canon.Mapping(e))
	graph.SortEdges(edges[e0:])
	for pv, hv := range e {
		if p.Degree(graph.V(pv)) > 0 {
			verts = append(verts, hv)
		}
	}
	slices.Sort(verts[v0:])
	return edges, verts
}

// tryMerge builds union subgraphs for each candidate embedding pair (the
// caller's presorted slice), buckets them by structure, and if the largest
// structure class is frequent, returns it as the merged pattern (ID
// unassigned — the caller's ordered reduction numbers accepted merges).
// Returns nil if no frequent merged structure exists.
//
// Each union costs one pass of each kind, and building it sorts nothing:
// a linear merge of the parents' prepared images (edges and endpoints;
// see mergeScratch), an in-place rebuild in sc.sub, one BFS pass that
// checks connectivity and Dmax together, and one WL refinement whose
// colors also drive every bucket comparison. A union is cloned only when
// it founds a bucket.
//
// tryMerge is read-only on pa, pb, and the Miner, and confines its
// mutable state to sc, so merge rounds may evaluate many pairs
// concurrently; isoRun is the caller-owned, per-worker isomorphism-test
// counter.
func (m *Miner) tryMerge(pa, pb *pattern.Pattern, eps []mergeCand, sc *mergeScratch, isoRun *int64) *pattern.Pattern {
	if sc.seenUnions == nil {
		sc.seenUnions = make(map[[2]uint64]struct{})
	} else {
		clear(sc.seenUnions)
	}
	if cap(sc.slotB) < len(pb.Emb) {
		sc.slotB = make([]int32, len(pb.Emb))
	}
	sc.slotB = sc.slotB[:len(pb.Emb)]
	clear(sc.slotB)
	sc.spansB, sc.edgesB, sc.vertsB = sc.spansB[:0], sc.edgesB[:0], sc.vertsB[:0]
	// used counts live buckets this call; entries beyond it are pool
	// leftovers from earlier calls.
	used := 0
	lastA := int32(-1)

	for _, pr := range eps {
		ea, eb := int(pr.ea), int(pr.eb)
		if ea >= len(pa.Emb) || eb >= len(pb.Emb) {
			continue
		}
		if pr.ea != lastA {
			sc.edgesA, sc.vertsA = appendImage(sc.edgesA[:0], sc.vertsA[:0], pa.G, pa.Emb[ea])
			lastA = pr.ea
		}
		if sc.slotB[eb] == 0 {
			sp := imageSpan{e0: int32(len(sc.edgesB)), v0: int32(len(sc.vertsB))}
			sc.edgesB, sc.vertsB = appendImage(sc.edgesB, sc.vertsB, pb.G, pb.Emb[eb])
			sp.e1, sp.v1 = int32(len(sc.edgesB)), int32(len(sc.vertsB))
			sc.spansB = append(sc.spansB, sp)
			sc.slotB[eb] = int32(len(sc.spansB))
		}
		sp := sc.spansB[sc.slotB[eb]-1]
		// Distinct embedding pairs routinely produce the same union edge
		// set; skip a repeat on a 128-bit hash of the sorted union (see
		// canon.HashEdges for the collision trade-off). A union's edge set
		// is also the host image of the embedding it adds to its bucket,
		// so every embedding a bucket gains is a distinct subgraph.
		sc.unionEdges = graph.AppendMergedEdges(sc.unionEdges[:0], sc.edgesA, sc.edgesB[sp.e0:sp.e1])
		uh := canon.HashEdges(sc.unionEdges)
		if _, dup := sc.seenUnions[uh]; dup {
			continue
		}
		sc.seenUnions[uh] = struct{}{}
		verts := graph.AppendMergedVerts(sc.unionVerts[:0], sc.vertsA, sc.vertsB[sp.v0:sp.v1])
		sc.unionVerts = verts
		ug := sc.sub.OfSortedEdges(m.g, verts, sc.unionEdges)
		// Merged patterns must be connected and respect the diameter
		// bound; a union that exceeds Dmax cannot be a subgraph of a valid
		// result pattern that this merge is meant to witness.
		if !sc.bfs.DiameterAtMost(ug, m.cfg.Dmax) {
			continue
		}

		inv := sc.iso.Invariant(ug)
		colors, sorted := sc.iso.Colors()
		placed := false
		// Linear scan of the pooled buckets filtered by invariant — same
		// visit order as the historical per-invariant append lists.
		for bi := 0; bi < used; bi++ {
			bk := sc.buckets[bi]
			if bk.inv != inv || bk.repr.N() != ug.N() || bk.repr.M() != ug.M() {
				continue
			}
			mapping := sc.iso.MapColored(ug, colors, sorted, bk.repr, bk.colors, bk.sorted)
			*isoRun++
			if mapping == nil {
				continue
			}
			// Re-express the union's vertices in repr's vertex order: repr
			// vertex i hosts verts[inverse(i)].
			re := make(pattern.Embedding, len(verts))
			for ugv, reprv := range mapping {
				re[reprv] = verts[ugv]
			}
			bk.embs = append(bk.embs, re)
			placed = true
			break
		}
		if !placed {
			var bk *mbucket
			if used < len(sc.buckets) {
				bk = sc.buckets[used]
				bk.embs = bk.embs[:0]
			} else {
				bk = new(mbucket)
				sc.buckets = append(sc.buckets, bk)
			}
			used++
			bk.inv = inv
			bk.repr = ug.Clone()
			bk.colors = append(bk.colors[:0], colors...)
			bk.sorted = append(bk.sorted[:0], sorted...)
			emb := make(pattern.Embedding, len(verts))
			copy(emb, verts)
			bk.embs = append(bk.embs, emb)
		}
	}

	// Choose the best frequent bucket: largest structure first, then most
	// embeddings, then a canonical tie-break on the first embedding's
	// image key (evaluation order must not leak into results; the exact
	// ImageKey strings are kept here — the tie-break must order total, and
	// it only runs on the rare frequent buckets).
	var best *mbucket
	bestKey := ""
	firstKey := func(bk *mbucket) string {
		if len(bk.embs) == 0 {
			return ""
		}
		k := bk.embs[0].ImageKey(bk.repr)
		for _, e := range bk.embs[1:] {
			if ek := e.ImageKey(bk.repr); ek < k {
				k = ek
			}
		}
		return k
	}
	for _, bk := range sc.buckets[:used] {
		if m.supFn(bk.repr, bk.embs) < m.cfg.MinSupport {
			continue
		}
		switch {
		case best == nil,
			bk.repr.M() > best.repr.M(),
			bk.repr.M() == best.repr.M() && len(bk.embs) > len(best.embs):
			best = bk
			bestKey = firstKey(bk)
		case bk.repr.M() == best.repr.M() && len(bk.embs) == len(best.embs):
			if k := firstKey(bk); k < bestKey {
				best = bk
				bestKey = k
			}
		}
	}
	if best == nil {
		return nil
	}
	// The bucket's embedding list is pooled scratch — copy the winner out.
	embs := make([]pattern.Embedding, len(best.embs))
	copy(embs, best.embs)
	mp := pattern.New(best.repr, embs)
	mp.Merged = true
	mp.Origin = -1 // merged patterns grow from their entire rim
	return mp
}

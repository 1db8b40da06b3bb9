package spidermine

import (
	"cmp"
	"math"
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
// A group that must fail again is resolved without evaluation (see
// markKnownFailures); the round's failures are what the next round of
// the restart consults.
//
// On cancellation checkMerges returns the input set unchanged together
// with ctx.Err(); the caller discards the round in favor of its committed
// snapshot, and the round's failures are dropped with it.
func (m *Miner) checkMerges(ws []*grown) ([]*grown, error) {
	if m.roundSeen != nil {
		m.roundSeen(ws)
	}
	out, err := m.mergeRound(ws)
	m.failed.endRound(err == nil)
	return out, err
}

// mergeRound is one checkMerges round: scan, resolve the groups whose
// failure is known, size the image arena, run the waves and number the
// accepted merges.
func (m *Miner) mergeRound(ws []*grown) ([]*grown, error) {
	if len(ws) < 2 {
		return ws, nil
	}
	groups, err := m.mergeGroups(ws)
	if err != nil || len(groups) == 0 {
		return ws, err
	}
	m.markKnownFailures(ws, groups)
	m.images.prepare(ws, m.scan.base, groups, m.mergeCands)
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

// markKnownFailures flags the groups whose merge must fail again: the
// ordered pattern-ID pair failed, or was resolved as failed, in the
// previous merge round of this restart; both patterns are done, so
// neither grew in the growth pass since; and mergePairCap did not cut the
// candidate list. tryMerge reads only the two patterns, their candidate
// list and the run's fixed settings; extendAt replaces a pattern's graph
// and embeddings only when it grows it, a merge makes a pattern with a new
// ID, and an uncut list is every overlapping pair of the two patterns'
// scanned embeddings. So the group's inputs are those of the failed
// evaluation, and so is its answer. A pair whose order in ws flipped
// (fallbackLargest sorts) is keyed apart and simply evaluated.
func (m *Miner) markKnownFailures(ws []*grown, groups []pairGroup) {
	for i := range groups {
		gp := &groups[i]
		pa, pb := ws[gp.pk.a], ws[gp.pk.b]
		gp.knownFail = !gp.cut && pa.done && pb.done && m.failed.has(pa.p.ID, pb.p.ID)
	}
}

// failedPairs holds one restart's merge failures by ordered pattern-ID
// pair (the lower ws index's ID first): prev the previous round's, sorted
// for binary search, and cur the current round's, in the order they are
// resolved. Both slices are reused across rounds.
type failedPairs struct{ prev, cur []idPair }

type idPair struct{ a, b int }

func cmpIDPair(x, y idPair) int {
	if x.a != y.a {
		return cmp.Compare(x.a, y.a)
	}
	return cmp.Compare(x.b, y.b)
}

func (f *failedPairs) has(a, b int) bool {
	_, ok := slices.BinarySearchFunc(f.prev, idPair{a, b}, cmpIDPair)
	return ok
}

func (f *failedPairs) add(a, b int) { f.cur = append(f.cur, idPair{a, b}) }

// endRound makes a finished round's failures the ones the next round
// consults, or drops those of a discarded round.
func (f *failedPairs) endRound(finished bool) {
	if !finished {
		f.cur = f.cur[:0]
		return
	}
	slices.SortFunc(f.cur, cmpIDPair)
	f.prev, f.cur = f.cur, f.prev[:0]
}

// reset forgets every failure; a restart starts from none.
func (f *failedPairs) reset() { f.prev, f.cur = f.prev[:0], f.cur[:0] }

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
// pattern stamped in this wave stays pending, a group whose failure is
// known (markKnownFailures) is resolved as failed and dropped, and any
// other group is ready; every group that is ready or stays pending stamps
// both its patterns (a known failure consumes nothing, so it stamps
// none). The first unresolved group is always resolved or ready, so every
// wave makes progress. The ready groups run through tryMerge on par.Do
// (inline at one worker), which checks for cancellation before every
// group, and then the patterns of the wave's merges are marked consumed.
// Pending groups are compacted in place in groups. Every failure, known
// or evaluated, is recorded for the next round.
//
// On cancellation mergeWaves returns ctx.Err(); the round is discarded.
func (m *Miner) mergeWaves(ws []*grown, groups []pairGroup, consumed []bool) ([]waveItem, error) {
	workers := par.Bound(len(groups), m.cfg.Workers)
	scs := m.mergeWS.For(workers)
	isoRuns := m.isoRuns.For(workers)
	stamp := m.waveStamp.For(len(ws))
	wave := m.wave[:0]
	eval := func(wk, i int) {
		gp := wave[i].gp
		wave[i].mp = m.tryMerge(&m.images, m.mergeCands[gp.lo:gp.hi], scs[wk], &isoRuns[wk])
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
			case gp.knownFail:
				m.stats.MergeSkipped++
				m.failed.add(ws[a].p.ID, ws[b].p.ID)
				continue
			default:
				wave = append(wave, waveItem{gp: gp})
			}
			stamp[a], stamp[b] = n, n
		}
		groups = pending
		if err = par.Do(m.ctx, len(wave), m.cfg.Workers, eval); err != nil {
			break
		}
		if m.waveSeen != nil {
			m.waveSeen(wave)
		}
		for _, it := range wave {
			a, b := it.gp.pk.a, it.gp.pk.b
			if it.mp == nil {
				m.failed.add(ws[a].p.ID, ws[b].p.ID)
				continue
			}
			consumed[a], consumed[b] = true, true
			accepted = append(accepted, it)
		}
	}
	m.wave, m.accepted = wave[:0], accepted[:0]
	for _, n := range isoRuns {
		m.stats.IsoRun += n
	}
	return accepted, err
}

// Overlap detection samples at most mergeScanEmb embeddings per pattern:
// merging only needs *one* overlapping pair per site, and the usage index
// otherwise grows as patterns × embeddings × pattern size.
const mergeScanEmb = 256

// mergePairCap bounds the overlapping embedding pairs examined per pattern
// pair each round.
const mergePairCap = 4096

// mergeScan is the overlap index and candidate scan state of a merge
// round, grown once per Miner and reused across rounds and restarts.
// Scan slots number the scanned embeddings of the round's working set:
// the first mergeScanEmb embeddings of pattern w are slots base[w] on.
type mergeScan struct {
	base []int32 // per pattern of ws, its first slot; one more entry holds the slot count
	// at is a host-sized sparse set: host vertex hv is touched this round
	// exactly when at[hv] < len(touched) and touched[at[hv]] == hv, so it is
	// never cleared. touched lists the touched vertices in first-touch
	// order.
	at      []int32
	touched []graph.V
	// The usage index, in CSR form: the slots using touched[t] are
	// slots[off[t]:off[t+1]], ascending. cur is the per-vertex fill cursor,
	// and visit[k] the position in slots of the fill's k-th (slot, vertex)
	// entry.
	off, cur, visit []int32
	slots           []usageSlot
	// stamp[s] is one plus the last slot whose pair scan found slot s: the
	// dedupe set of one slot's candidates.
	stamp []int32
	// ranked is the buffer that reorders a capped group by discovery.
	ranked []rankedCand
}

// mergeGroups collects the round's merge candidates — overlapping
// (pattern pair, embedding pair) combinations of ws — into m.mergeCands,
// sorted by (a, b, ea, eb), and returns them cut into per-pattern-pair
// groups (also kept in m.pairGroups); nil when nothing overlaps. A pattern
// pair keeps the first mergePairCap of its distinct candidates in
// discovery order — touched-vertex order, then slot order — and its group
// is marked cut when it had more.
//
// The usage index is built in two passes over the scanned embeddings, a
// count and a fill. The pair scan then walks slot by slot, pairing a
// slot's entry at each of its vertices with the later slots of other
// patterns there, and dedupes a slot's candidates by stamping the slots
// it found. Nothing is hashed, and a warm round allocates nothing.
//
// The pair scan checks for cancellation once per slot; on cancellation
// mergeGroups returns ctx.Err() with no groups. The index needs no
// cleanup: the next round starts from a truncated one. A fresh Miner's
// first round grows every table from empty: on a small host that is the
// largest allocation of the mine and several milliseconds of work, which
// a cancel arriving meanwhile should not have to wait out.
func (m *Miner) mergeGroups(ws []*grown) ([]pairGroup, error) {
	sc := &m.scan
	sc.base = append(sc.base[:0], 0)
	for _, w := range ws {
		sc.base = append(sc.base, sc.base[len(sc.base)-1]+int32(min(len(w.p.Emb), mergeScanEmb)))
	}
	if len(sc.at) < m.g.N() {
		sc.at = make([]int32, m.g.N())
	}
	at, touched, cnt := sc.at, sc.touched[:0], sc.cur[:0]
	visits := 0
	for _, w := range ws {
		for _, e := range scanned(w.p) {
			for _, hv := range e {
				t := at[hv]
				if int(t) >= len(touched) || touched[t] != hv {
					t = int32(len(touched))
					at[hv] = t
					touched = append(touched, hv)
					cnt = append(cnt, 0)
				}
				cnt[t]++
			}
			visits += len(e)
		}
	}
	off := append(sc.off[:0], 0)
	for t := range touched {
		off = append(off, off[t]+cnt[t])
		cnt[t] = off[t]
	}
	slots, visit := slices.Grow(sc.slots[:0], visits)[:visits], slices.Grow(sc.visit[:0], visits)[:visits]
	k := 0
	for wi, w := range ws {
		for ei, e := range scanned(w.p) {
			for _, hv := range e {
				t := at[hv]
				slots[cnt[t]] = usageSlot{int32(wi), int32(ei)}
				visit[k] = cnt[t]
				cnt[t]++
				k++
			}
		}
	}
	sc.touched, sc.cur, sc.off, sc.slots, sc.visit = touched, cnt, off, slots, visit

	stamp := fitZero(sc.stamp, int(sc.base[len(ws)]))
	sc.stamp = stamp
	cands := m.mergeCands[:0]
	k = 0
	for wi, w := range ws {
		for ei, e := range scanned(w.p) {
			if err := m.cancelled(); err != nil {
				m.mergeCands = cands[:0]
				return nil, err
			}
			self := sc.base[wi] + int32(ei) + 1
			for _, hv := range e {
				end := off[at[hv]+1]
				for q := visit[k] + 1; q < end; q++ {
					s := slots[q]
					if s.w == int32(wi) {
						continue
					}
					if g := sc.base[s.w] + s.emb; stamp[g] != self {
						stamp[g] = self
						cands = append(cands, mergeCand{a: int32(wi), b: s.w, ea: int32(ei), eb: s.emb})
					}
				}
				k++
			}
		}
	}
	if len(cands) == 0 {
		m.mergeCands = cands
		return nil, nil
	}
	// Deterministic evaluation order: sort the flat list by (a, b, ea, eb)
	// and cut it into per-pattern-pair groups, capping each in place.
	slices.SortFunc(cands, cmpMergeCand)
	groups := m.pairGroups[:0]
	n := 0
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j].a == cands[i].a && cands[j].b == cands[i].b {
			j++
		}
		gp := pairGroup{pk: pairKey{int(cands[i].a), int(cands[i].b)}, lo: int32(n)}
		run := cands[i:j]
		if len(run) > mergePairCap {
			run, gp.cut = sc.firstDiscovered(ws, run), true
		}
		n += copy(cands[n:], run)
		gp.hi = int32(n)
		groups = append(groups, gp)
		i = j
	}
	m.mergeCands = cands[:n]
	m.pairGroups = groups
	return groups, nil
}

// scanned returns the embeddings of p that overlap detection scans.
func scanned(p *pattern.Pattern) []pattern.Embedding {
	return p.Emb[:min(len(p.Emb), mergeScanEmb)]
}

// firstDiscovered cuts one pattern pair's sorted candidates, more than
// mergePairCap of them, to the first mergePairCap in discovery order and
// returns them in place, sorted again. Discovery order is the order in
// which a vertex-by-vertex walk of the usage index first meets each
// candidate: at the first touched vertex its two embeddings share, where
// a vertex's slot pairs come up in (ea, eb) order, so it is (that
// vertex's touched position, ea, eb). Caps bind rarely, so the position
// is recomputed here rather than tracked by the scan.
func (sc *mergeScan) firstDiscovered(ws []*grown, run []mergeCand) []mergeCand {
	ranked := sc.ranked[:0]
	for _, c := range run {
		first := int32(math.MaxInt32)
		for _, hv := range ws[c.a].p.Emb[c.ea] {
			t := sc.at[hv]
			if t >= first {
				continue
			}
			if _, ok := slices.BinarySearchFunc(sc.slots[sc.off[t]:sc.off[t+1]], usageSlot{c.b, c.eb}, cmpUsageSlot); ok {
				first = t
			}
		}
		ranked = append(ranked, rankedCand{first, c})
	}
	slices.SortFunc(ranked, func(x, y rankedCand) int {
		if x.first != y.first {
			return int(x.first) - int(y.first)
		}
		return cmpMergeCand(x.c, y.c)
	})
	sc.ranked = ranked
	run = run[:mergePairCap]
	for i := range run {
		run[i] = ranked[i].c
	}
	slices.SortFunc(run, cmpMergeCand)
	return run
}

// rankedCand is a candidate with the touched position it is discovered at.
type rankedCand struct {
	first int32
	c     mergeCand
}

// usageSlot names one embedding of one working pattern during overlap
// detection.
type usageSlot struct {
	w   int32 // index into ws
	emb int32 // embedding index
}

func cmpUsageSlot(x, y usageSlot) int {
	if x.w != y.w {
		return int(x.w) - int(y.w)
	}
	return int(x.emb) - int(y.emb)
}

// pairKey identifies an unordered pair of working patterns (a < b, both
// indices into ws) during a merge round.
type pairKey struct{ a, b int }

// mergeCand is one merge candidate: patterns ws[a], ws[b] (a < b) overlap
// on embeddings Emb[ea], Emb[eb].
type mergeCand struct{ a, b, ea, eb int32 }

func cmpMergeCand(x, y mergeCand) int {
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
}

// pairGroup is one pattern pair's contiguous run of candidates in the
// sorted mergeCands list. cut marks a run mergePairCap cut, and knownFail
// a group resolved as failed without evaluation (markKnownFailures).
type pairGroup struct {
	pk             pairKey
	lo, hi         int32
	cut, knownFail bool
}

// waveItem is one group of a merge wave and, once evaluated, its merged
// pattern (nil when no frequent union exists).
type waveItem struct {
	gp pairGroup
	mp *pattern.Pattern
}

// mergeImages is a merge round's arena of prepared parent images: the
// host image of every scan slot that a group the round may evaluate
// names, its edges sorted by (U, W) and its endpoints ascending, so that
// building a union sorts nothing. Each image is prepared at most once per
// round, on first use. The arena is sized before the waves from the
// candidates and reused across rounds and runs. A wave's groups share no
// pattern, so the worker evaluating a group is the only writer to its two
// patterns' slots, and nothing is locked; the join between waves orders
// one wave's writes before the next wave's reads.
type mergeImages struct {
	ws    []*grown
	base  []int32     // the scan's slot numbering
	span  []imageSpan // per slot; empty for a slot no group names
	ready []bool      // per slot: prepared this round
	edges []graph.Edge
	verts []graph.V
}

// imageSpan locates one prepared image in mergeImages' flat buffers.
type imageSpan struct{ e0, e1, v0, v1 int32 }

// prepare sizes the arena for the round: a span for every slot that a
// group not known to fail names, none prepared yet. base is the scan's
// slot numbering of ws and cands the groups' candidates.
func (im *mergeImages) prepare(ws []*grown, base []int32, groups []pairGroup, cands []mergeCand) {
	im.ws, im.base = ws, base
	n := int(base[len(ws)])
	// The ready flags serve as the named marks while the spans are laid
	// out, and are cleared again before any image is prepared.
	named := slices.Grow(im.ready[:0], n)[:n]
	clear(named)
	for _, gp := range groups {
		if gp.knownFail {
			continue
		}
		for _, c := range cands[gp.lo:gp.hi] {
			named[base[c.a]+c.ea], named[base[c.b]+c.eb] = true, true
		}
	}
	span := slices.Grow(im.span[:0], n)[:n]
	var ne, nv int32
	for w, g := range ws {
		me, mv := int32(g.p.G.M()), int32(nonIsolated(g.p.G))
		for s := base[w]; s < base[w+1]; s++ {
			if named[s] {
				span[s] = imageSpan{ne, ne + me, nv, nv + mv}
				ne, nv = ne+me, nv+mv
			} else {
				span[s] = imageSpan{}
			}
		}
	}
	clear(named)
	im.ready, im.span = named, span
	im.edges = slices.Grow(im.edges[:0], int(ne))[:ne]
	im.verts = slices.Grow(im.verts[:0], int(nv))[:nv]
}

// nonIsolated counts the vertices of g with an edge: the endpoints of an
// image of g.
func nonIsolated(g *graph.Graph) int {
	n := 0
	for v := 0; v < g.N(); v++ {
		if g.Degree(graph.V(v)) > 0 {
			n++
		}
	}
	return n
}

// image returns the prepared image of embedding e of pattern w, preparing
// it on first use this round.
func (im *mergeImages) image(w, e int32) ([]graph.Edge, []graph.V) {
	s := im.base[w] + e
	sp := im.span[s]
	edges, verts := im.edges[sp.e0:sp.e1:sp.e1], im.verts[sp.v0:sp.v1:sp.v1]
	if !im.ready[s] {
		p := im.ws[w].p
		appendImage(edges[:0], verts[:0], p.G, p.Emb[e])
		im.ready[s] = true
	}
	return edges, verts
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

// mergeScratch is one worker's tryMerge state: the merged union, the
// union-hash dedupe set, the in-place union subgraph, the BFS scratch, the
// bucket pool, and the WL/isomorphism scratch. Owned by exactly one worker
// for the duration of a merge wave.
type mergeScratch struct {
	unionEdges []graph.Edge
	unionVerts []graph.V
	seenUnions map[[2]uint64]struct{}
	sub        graph.SubgraphScratch
	bfs        graph.BFS
	buckets    []*mbucket
	iso        canon.Iso
}

// appendImage appends the host image of embedding e of pattern graph p:
// its edges, sorted by (U, W), to edges, and their endpoints, ascending,
// to verts. Building a union sorts nothing else.
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

// tryMerge builds union subgraphs for each candidate embedding pair of one
// pattern pair (the caller's presorted slice), buckets them by structure,
// and if the largest structure class is frequent, returns it as the merged
// pattern (ID unassigned — the caller's ordered reduction numbers accepted
// merges). Returns nil if no frequent merged structure exists.
//
// Each union costs one pass of each kind, and building it sorts nothing:
// a linear merge of the parents' prepared images (edges and endpoints,
// read from im), an in-place rebuild in sc.sub, one BFS pass that checks
// connectivity and Dmax together, and one WL refinement whose colors also
// drive every bucket comparison. A union is cloned only when it founds a
// bucket.
//
// tryMerge is read-only on the patterns and the Miner, writes only the
// two patterns' slots of im, and confines its other mutable state to sc,
// so merge rounds may evaluate groups of distinct patterns concurrently;
// isoRun is the caller-owned, per-worker isomorphism-test counter.
func (m *Miner) tryMerge(im *mergeImages, eps []mergeCand, sc *mergeScratch, isoRun *int64) *pattern.Pattern {
	if sc.seenUnions == nil {
		sc.seenUnions = make(map[[2]uint64]struct{})
	} else {
		clear(sc.seenUnions)
	}
	// used counts live buckets this call; entries beyond it are pool
	// leftovers from earlier calls.
	used := 0
	var edgesA []graph.Edge
	var vertsA []graph.V
	lastA := int32(-1)

	for _, pr := range eps {
		if pr.ea != lastA {
			edgesA, vertsA = im.image(pr.a, pr.ea)
			lastA = pr.ea
		}
		edgesB, vertsB := im.image(pr.b, pr.eb)
		// Distinct embedding pairs routinely produce the same union edge
		// set; skip a repeat on a 128-bit hash of the sorted union (see
		// canon.HashEdges for the collision trade-off). A union's edge set
		// is also the host image of the embedding it adds to its bucket,
		// so every embedding a bucket gains is a distinct subgraph.
		sc.unionEdges = graph.AppendMergedEdges(sc.unionEdges[:0], edgesA, edgesB)
		uh := canon.HashEdges(sc.unionEdges)
		if _, dup := sc.seenUnions[uh]; dup {
			continue
		}
		sc.seenUnions[uh] = struct{}{}
		verts := graph.AppendMergedVerts(sc.unionVerts[:0], vertsA, vertsB)
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

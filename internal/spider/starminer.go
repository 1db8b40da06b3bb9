package spider

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// StarMiner is the reusable Stage I engine: it mines the frequent stars of
// a host graph level-wise, owning every table the enumeration needs as
// flat, label-sorted scratch grown once and reused across runs. The zero
// value is ready to use.
//
// Ownership contract: the []*MinedStar returned by Mine — the stars, their
// Hosts and Leaves slices — is carved out of the StarMiner's arenas and is
// INVALIDATED by the next Mine call on the same StarMiner. The package
// function MineStarsContext uses a throwaway StarMiner, so its output is
// caller-owned forever; the spidermine Miner holds a StarMiner across runs
// and reads each run's stars only until its next Mine.
//
// Internals, replacing the historical map-based level tables:
//
//   - labels/rank: every table holds label ranks, not labels. A rank is
//     the label's index among the host's sorted distinct labels (labels
//     maps it back for output), so rank order is label order and every
//     sorted structure comes out as it would over labels. Ranks are dense
//     and never negative whatever the labels are, so per-rank tallies are
//     plain arrays;
//   - nbrOff/nbrFlat: CSR-shaped per-vertex sorted neighbor-rank table
//     (was [][]graph.Label of per-chunk carved slices);
//   - level 1: flat (head, leaf, host) triples built per chunk,
//     concatenated in chunk order and sorted by the total order
//     (head, leaf, host) — the exact frontier the map+sort path built;
//   - expansion: per-worker starScratch (per-rank tallies plus the output
//     arenas), with per-item output spans concatenated in frontier order,
//     so results stay bit-identical for any worker count.
type StarMiner struct {
	labels  []graph.Label // rank -> label: the host's sorted distinct labels
	rank    []int32       // vertex -> rank of its label
	nbrFlat []int32
	nbrOff  []int32

	triples      []pairTriple
	chunkTriples [][]pairTriple

	all, frontier, next []*MinedStar
	spans               []expandSpan
	chunks              [][2]int
	ws                  par.Workspace[starScratch]

	// Per-call state for the persistent par.Do bodies below. A closure
	// passed to par.Do escapes (it may run on spawned goroutines), so an
	// inline literal heap-allocates on every call; these capture only sm
	// and read their per-call inputs from here, allocating once per
	// StarMiner instead of once per run/level.
	curG        *graph.Graph
	curSigma    int
	curFrontier []*MinedStar
	curScrs     []*starScratch
	csrFn       func(worker, item int)
	l1Fn        func(worker, item int)
	expFn       func(worker, item int)
}

// pairTriple is one level-1 observation: head vertex v (label rank head)
// has at least one neighbor of label rank leaf.
type pairTriple struct {
	head, leaf int32
	v          graph.V
}

func cmpTriple(a, b pairTriple) int {
	if a.head != b.head {
		return int(a.head) - int(b.head)
	}
	if a.leaf != b.leaf {
		return int(a.leaf) - int(b.leaf)
	}
	return int(a.v) - int(b.v)
}

// expandSpan records which worker's output buffer holds one frontier
// item's extensions, for the ordered concatenation after the join.
type expandSpan struct {
	w, lo, hi int32
}

// starScratch is one worker's expansion state: per-rank tallies plus the
// arenas that back the retained output (hosts, leaf multisets, MinedStar
// structs). Worker i owns scratch i for the duration of a level; arenas
// reset only between runs, never between levels, so every star of a run
// stays valid until the next Mine.
//
// The tallies are expand's: cnt[r] counts the hosts that can take one more
// leaf of rank r, seen marks each counted rank with one bit, obs records
// every (rank, host) observation, ranks lists the frequent ranks and pos[r]
// is rank r's placement cursor. cnt and seen are zero between calls
// (expand clears what it set); pos is read only where expand set it.
type starScratch struct {
	cnt   []int32
	pos   []int32
	seen  []uint64
	obs   []rankHost
	ranks []int32
	out   []*MinedStar

	hostArena arena[graph.V]
	leafArena arena[graph.Label]
	stars     arena[MinedStar]
}

// rankHost is one expansion observation: host v can take one more leaf
// of rank r.
type rankHost struct {
	r int32
	v graph.V
}

// fit sizes the per-rank tallies for a host with n distinct labels. They
// only ever grow: a new table starts zeroed, and an old one is zero
// between expand calls, so neither needs clearing.
func (s *starScratch) fit(n int) {
	if len(s.cnt) < n {
		s.cnt = make([]int32, n)
		s.pos = make([]int32, n)
		s.seen = make([]uint64, (n+63)/64)
	}
}

func (s *starScratch) resetRun() {
	s.hostArena.reset()
	s.leafArena.reset()
	s.stars.reset()
}

// arena is a grow-once block allocator for run-scoped output: alloc carves
// capacity-capped slices from the current block (so append on a carved
// slice can never alias its neighbor), and reset recycles the arena for
// the next run, upsizing the block to the previous run's total demand so
// warm runs carve everything from one allocation.
type arena[T any] struct {
	cur  []T
	used int
}

func (a *arena[T]) alloc(n int) []T {
	a.used += n
	if len(a.cur)+n > cap(a.cur) {
		sz := 2 * cap(a.cur)
		if sz < 1024 {
			sz = 1024
		}
		for sz < n {
			sz <<= 1
		}
		a.cur = make([]T, 0, sz)
	}
	lo := len(a.cur)
	a.cur = a.cur[:lo+n]
	return a.cur[lo : lo+n : lo+n]
}

func (a *arena[T]) reset() {
	if a.used > cap(a.cur) {
		sz := 1024
		for sz < a.used {
			sz <<= 1
		}
		a.cur = make([]T, 0, sz)
	}
	a.cur = a.cur[:0]
	a.used = 0
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

// nbrRanks returns v's neighbor label ranks, ascending.
func (sm *StarMiner) nbrRanks(v graph.V) []int32 {
	return sm.nbrFlat[sm.nbrOff[v]:sm.nbrOff[v+1]]
}

// Mine enumerates all frequent stars of g level-wise; see MineStarsContext
// for the level-commit cancellation contract and the package comment for
// the output-ownership contract.
func (sm *StarMiner) Mine(ctx context.Context, g *graph.Graph, opt Options) ([]*MinedStar, error) {
	sigma := opt.MinSupport
	if sigma < 1 {
		sigma = 1
	}
	maxLeaves := opt.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	for _, s := range sm.ws.All() {
		s.resetRun()
	}

	// Label ranks: the host's sorted distinct labels, and each vertex's
	// label's index among them.
	n := g.N()
	sm.labels = append(sm.labels[:0], g.Labels()...)
	slices.Sort(sm.labels)
	sm.labels = slices.Compact(sm.labels)
	sm.rank = growI32(sm.rank, n)
	for v, l := range g.Labels() {
		r, _ := slices.BinarySearch(sm.labels, l)
		sm.rank[v] = int32(r)
	}

	// Per-vertex sorted neighbor-rank table, CSR-shaped. Chunks partition
	// the vertex range contiguously, so workers write disjoint segments.
	sm.nbrOff = growI32(sm.nbrOff, n+1)
	total := 0
	for v := 0; v < n; v++ {
		sm.nbrOff[v] = int32(total)
		total += g.Degree(graph.V(v))
	}
	sm.nbrOff[n] = int32(total)
	sm.nbrFlat = growI32(sm.nbrFlat, total)
	sm.chunks = par.AppendChunks(sm.chunks[:0], n, opt.Workers)
	chunks := sm.chunks
	sm.curG = g
	if sm.csrFn == nil {
		sm.csrFn = func(_, ci int) {
			g, c := sm.curG, sm.chunks[ci]
			for v := c[0]; v < c[1]; v++ {
				seg := sm.nbrFlat[sm.nbrOff[v]:sm.nbrOff[v+1]]
				for i, w := range g.Neighbors(graph.V(v)) {
					seg[i] = sm.rank[w]
				}
				slices.Sort(seg)
			}
		}
	}
	if err := par.Do(ctx, len(chunks), len(chunks), sm.csrFn); err != nil {
		return nil, err
	}

	// Level 1: flat (head, leaf, host) triples per chunk, concatenated in
	// chunk order, then sorted by the total order — same frontier as the
	// historical per-chunk hash tables merged and sorted, without the maps.
	for len(sm.chunkTriples) < len(chunks) {
		sm.chunkTriples = append(sm.chunkTriples, nil)
	}
	if sm.l1Fn == nil {
		sm.l1Fn = func(_, ci int) {
			c := sm.chunks[ci]
			buf := sm.chunkTriples[ci][:0]
			for v := c[0]; v < c[1]; v++ {
				prev := int32(-1) // no rank is negative
				for _, r := range sm.nbrRanks(graph.V(v)) {
					if r != prev {
						buf = append(buf, pairTriple{head: sm.rank[v], leaf: r, v: graph.V(v)})
						prev = r
					}
				}
			}
			sm.chunkTriples[ci] = buf
		}
	}
	if err := par.Do(ctx, len(chunks), len(chunks), sm.l1Fn); err != nil {
		return nil, err
	}
	triples := sm.triples[:0]
	for ci := range chunks {
		triples = append(triples, sm.chunkTriples[ci]...)
	}
	slices.SortFunc(triples, cmpTriple)
	sm.triples = triples

	// Frequent single-leaf stars: one group per (head, leaf) run; hosts
	// come out ascending because triples are sorted.
	s0 := sm.ws.For(1)[0]
	frontier := sm.frontier[:0]
	for i := 0; i < len(triples); {
		j := i + 1
		for j < len(triples) && triples[j].head == triples[i].head && triples[j].leaf == triples[i].leaf {
			j++
		}
		if j-i >= sigma {
			hosts := s0.hostArena.alloc(j - i)
			for k := i; k < j; k++ {
				hosts[k-i] = triples[k].v
			}
			leaves := s0.leafArena.alloc(1)
			leaves[0] = sm.labels[triples[i].leaf]
			ms := &s0.stars.alloc(1)[0]
			*ms = MinedStar{Star: Star{Head: sm.labels[triples[i].head], Leaves: leaves}, Hosts: hosts}
			frontier = append(frontier, ms)
		}
		i = j
	}
	sm.frontier = frontier

	all := append(sm.all[:0], frontier...)
	cur, spare := frontier, sm.next
	for level := 1; level < maxLeaves && len(cur) > 0; level++ {
		if opt.MaxSpiders > 0 && len(all) >= opt.MaxSpiders {
			break
		}
		next, err := sm.expandLevel(ctx, cur, sigma, opt.Workers, spare[:0])
		if err != nil {
			// Return only fully committed levels: the partial star list is
			// then a deterministic function of how many levels completed.
			sm.all = all
			return all, err
		}
		// Canonical generation (extend only with labels >= last) keeps the
		// level unique and, concatenated in frontier order, sorted.
		all = append(all, next...)
		cur, spare = next, cur
	}
	sm.frontier, sm.next = cur, spare
	if opt.MaxSpiders > 0 && len(all) > opt.MaxSpiders {
		all = all[:opt.MaxSpiders]
	}
	sm.all = all
	return all, nil
}

// expandLevel extends every frontier star by one leaf, sharded across
// workers. Per-item outputs land in per-worker append buffers with spans
// recorded per item; concatenating spans in frontier order reproduces the
// sequential output for any worker count.
func (sm *StarMiner) expandLevel(ctx context.Context, frontier []*MinedStar, sigma, workers int, dst []*MinedStar) ([]*MinedStar, error) {
	wk := par.Bound(len(frontier), workers)
	scrs := sm.ws.For(wk)
	for _, s := range scrs {
		s.out = s.out[:0]
		s.fit(len(sm.labels))
	}
	if cap(sm.spans) < len(frontier) {
		sm.spans = make([]expandSpan, len(frontier))
	}
	spans := sm.spans[:len(frontier)]
	sm.curSigma, sm.curFrontier, sm.curScrs = sigma, frontier, scrs
	if sm.expFn == nil {
		sm.expFn = func(w, i int) {
			s := sm.curScrs[w]
			lo := len(s.out)
			sm.expand(sm.curFrontier[i], sm.curSigma, s)
			sm.spans[i] = expandSpan{w: int32(w), lo: int32(lo), hi: int32(len(s.out))}
		}
	}
	err := par.Do(ctx, len(frontier), wk, sm.expFn)
	sm.curFrontier, sm.curScrs = nil, nil
	if err != nil {
		return nil, err
	}
	for _, sp := range spans {
		dst = append(dst, scrs[sp.w].out[sp.lo:sp.hi]...)
	}
	return dst, nil
}

// expand appends to s.out every frequent one-leaf extension of ms whose
// new leaf label is >= the star's last leaf (canonical generation order),
// in ascending order of the new label, each with its hosts ascending.
//
// One walk per host over its neighbor ranks from last's rank up: a host
// can take one more leaf of rank r when r's run there is longer than the
// star's leaves of rank r, which can only be nonzero for last's rank. The
// host lists come out ascending because ms.Hosts is, and appending a label
// >= last keeps the leaf multiset sorted.
func (sm *StarMiner) expand(ms *MinedStar, sigma int, s *starScratch) {
	leaves := ms.Star.Leaves
	last := leaves[len(leaves)-1]
	lr, _ := slices.BinarySearch(sm.labels, last)
	lastRank := int32(lr)
	lastNeed := 1
	for i := len(leaves) - 1; i >= 0 && leaves[i] == last; i-- {
		lastNeed++
	}

	// Count: cnt[r] hosts can take rank r; obs keeps the observations.
	obs := s.obs[:0]
	hiRank := int32(-1)
	for _, v := range ms.Hosts {
		rs := sm.nbrRanks(v)
		i, _ := slices.BinarySearch(rs, lastRank)
		for i < len(rs) {
			r := rs[i]
			j := i + 1
			for j < len(rs) && rs[j] == r {
				j++
			}
			need := 1
			if r == lastRank {
				need = lastNeed
			}
			if j-i >= need {
				if s.cnt[r] == 0 {
					s.seen[r>>6] |= 1 << (r & 63)
					hiRank = max(hiRank, r)
				}
				s.cnt[r]++
				obs = append(obs, rankHost{r: r, v: v})
			}
			i = j
		}
	}
	s.obs = obs

	// Frequent ranks in ascending order, each given its span of one host
	// block; infrequent ones are dropped here (cnt back to 0).
	ranks := s.ranks[:0]
	var total int32
	for w := lastRank >> 6; w <= hiRank>>6; w++ {
		for word := s.seen[w]; word != 0; word &= word - 1 {
			r := w<<6 | int32(bits.TrailingZeros64(word))
			if int(s.cnt[r]) < sigma {
				s.cnt[r] = 0
				continue
			}
			s.pos[r] = total
			total += s.cnt[r]
			ranks = append(ranks, r)
		}
		s.seen[w] = 0
	}
	s.ranks = ranks
	if len(ranks) == 0 {
		return
	}

	// Place: obs is in host order, so every span fills ascending.
	block := s.hostArena.alloc(int(total))
	for _, o := range obs {
		if s.cnt[o.r] != 0 {
			block[s.pos[o.r]] = o.v
			s.pos[o.r]++
		}
	}
	for _, r := range ranks {
		hi := s.pos[r]
		lo := hi - s.cnt[r]
		s.cnt[r] = 0
		lcopy := s.leafArena.alloc(len(leaves) + 1)
		copy(lcopy, leaves)
		lcopy[len(leaves)] = sm.labels[r]
		nms := &s.stars.alloc(1)[0]
		*nms = MinedStar{Star: Star{Head: ms.Star.Head, Leaves: lcopy}, Hosts: block[lo:hi:hi]}
		s.out = append(s.out, nms)
	}
}

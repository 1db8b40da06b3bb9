package spider

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/par"
)

// StarMiner is the reusable Stage I engine: it mines the frequent stars of
// a host graph level-wise into a flat star table (see Stars), owning that
// table and every scratch structure the enumeration needs, each grown once
// and reused across runs. The zero value is ready to use.
//
// Ownership contract: the *Stars returned by Mine — the table and every
// host slice read from it — is the StarMiner's own and is valid until the
// next Mine call on the same StarMiner, which rebuilds it in place. The
// package function MineStarsContext uses a throwaway StarMiner, so its
// output is caller-owned forever; the spidermine Miner holds a StarMiner
// across runs and reads each run's stars only until its next Mine.
//
// Internals:
//
//   - labels/rank: every table holds label ranks, not labels. A rank is
//     the label's index among the host's sorted distinct labels (the
//     table's labels map it back), so rank order is label order and every
//     sorted structure comes out as it would over labels. Ranks are dense
//     and never negative whatever the labels are, so per-rank tallies are
//     plain arrays;
//   - nbrOff/nbrFlat: CSR-shaped per-vertex sorted neighbor-rank table;
//   - level 1: flat (head, leaf, host) triples built per chunk,
//     concatenated in chunk order and sorted by the total order
//     (head, leaf, host), then counted and written to the table;
//   - expansion: a level's frontier — the previous level's stars, a range
//     of the table — is expanded in blocks of expandBlock stars. Each
//     worker's starScratch holds per-rank tallies and the block's output
//     records and hosts; per-item spans are copied into the table in
//     frontier order, so the table is identical for any worker count. The
//     copy is the only one a star's record and hosts get, unless the table
//     has to grow (see grow).
type StarMiner struct {
	out     Stars   // the table Mine returns; out.labels is the rank table
	rank    []int32 // vertex -> rank of its label
	nbrFlat []int32
	nbrOff  []int32

	triples      []pairTriple
	chunkTriples [][]pairTriple

	spans  []expandSpan
	chunks [][2]int
	ws     par.Workspace[starScratch]

	// Per-call state for the persistent par.Do bodies below. A closure
	// passed to par.Do escapes (it may run on spawned goroutines), so an
	// inline literal heap-allocates on every call; these capture only sm
	// and read their per-call inputs from here, allocating once per
	// StarMiner instead of once per run/block.
	curG     *graph.Graph
	curSigma int
	curLo    int // table index of the block's first frontier star
	curScrs  []*starScratch
	csrFn    func(worker, item int)
	l1Fn     func(worker, item int)
	expFn    func(worker, item int)

	// blockSeen, when set (tests only), observes every expanded block:
	// how many frontier stars it expanded and how many stars it built.
	blockSeen func(items, built int)
}

// expandBlock is how many frontier stars one parallel step expands. The
// table stops growing inside the block that fills it to MaxSpiders, so at
// most one block's extensions are built beyond the cap.
const expandBlock = 4096

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

// expandSpan records where one frontier star's extensions sit in worker
// w's output: records [rLo, rHi) and their hosts [hLo, hHi).
type expandSpan struct {
	w, rLo, rHi, hLo, hHi int
}

// starScratch is one worker's expansion state: per-rank tallies plus the
// current block's output, reused across blocks, levels and runs. Worker i
// owns scratch i for the duration of a block.
//
// The tallies are expand's: cnt[r] counts the hosts that can take one more
// leaf of rank r, seen marks each counted rank with one bit, obs records
// every (rank, host) observation, ranks lists the frequent ranks and pos[r]
// is rank r's placement cursor. cnt and seen are zero between calls
// (expand clears what it set); pos is read only where expand set it.
//
// recs and hosts are the block's extensions. A record's hostEnd holds its
// host count here; the copy into the table turns it into an offset.
type starScratch struct {
	cnt   []int32
	pos   []int32
	seen  []uint64
	obs   []rankHost
	ranks []int32
	recs  []starRec
	hosts []graph.V
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

// Mine enumerates all frequent stars of g level-wise into the
// StarMiner's table; see MineStarsContext for the order, the cap and the
// level-commit cancellation contract, and StarMiner for the
// output-ownership contract. The table is never nil: a run cancelled
// before level 1 completes returns it empty.
func (sm *StarMiner) Mine(ctx context.Context, g *graph.Graph, opt Options) (*Stars, error) {
	sigma := opt.MinSupport
	if sigma < 1 {
		sigma = 1
	}
	maxLeaves := opt.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	t := &sm.out
	t.recs, t.hosts = t.recs[:0], t.hosts[:0]

	// Label ranks: the host's sorted distinct labels, and each vertex's
	// label's index among them.
	n := g.N()
	t.labels = append(t.labels[:0], g.Labels()...)
	slices.Sort(t.labels)
	t.labels = slices.Compact(t.labels)
	sm.rank = growI32(sm.rank, n)
	for v, l := range g.Labels() {
		r, _ := slices.BinarySearch(t.labels, l)
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
		return t, err
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
		return t, err
	}
	triples := sm.triples[:0]
	for ci := range chunks {
		triples = append(triples, sm.chunkTriples[ci]...)
	}
	slices.SortFunc(triples, cmpTriple)
	sm.triples = triples
	if err := sm.level1(sigma, opt.MaxSpiders); err != nil {
		return t, err
	}

	// A level that adds nothing, because the table is full, ends the loop.
	lo, hi := 0, len(t.recs)
	for level := 1; level < maxLeaves && lo < hi; level++ {
		if err := sm.expandLevel(ctx, lo, hi, sigma, opt); err != nil {
			// Return only fully committed levels: the partial table is then
			// a deterministic function of how many levels completed.
			t.recs = t.recs[:hi]
			t.hosts = t.hosts[:t.recs[hi-1].hostEnd]
			return t, err
		}
		lo, hi = hi, len(t.recs)
	}
	return t, nil
}

// level1 writes the frequent single-leaf stars to the empty table, up to
// maxSpiders (0 = all): one star per (head, leaf) run of at least σ
// triples, hosts ascending because triples are sorted. A first pass
// counts them, so the table grows to exactly their size.
func (sm *StarMiner) level1(sigma, maxSpiders int) error {
	t, triples := &sm.out, sm.triples
	runEnd := func(i int) int {
		j := i + 1
		for j < len(triples) && triples[j].head == triples[i].head && triples[j].leaf == triples[i].leaf {
			j++
		}
		return j
	}
	full := func(stars int) bool { return maxSpiders > 0 && stars >= maxSpiders }
	stars, hosts := 0, 0
	for i := 0; i < len(triples) && !full(stars); {
		j := runEnd(i)
		if j-i >= sigma {
			stars++
			hosts += j - i
		}
		i = j
	}
	if hosts > maxTableHosts {
		return errTableFull
	}
	t.grow(stars, hosts, stars, hosts)
	for i := 0; i < len(triples) && !full(len(t.recs)); {
		j := runEnd(i)
		if j-i >= sigma {
			for _, tr := range triples[i:j] {
				t.hosts = append(t.hosts, tr.v)
			}
			t.recs = append(t.recs, starRec{head: triples[i].head, parent: -1, leaf: triples[i].leaf, run: 1, leaves: 1, hostEnd: int32(len(t.hosts))})
		}
		i = j
	}
	return nil
}

// expandLevel appends to the table the one-leaf extensions of the
// frontier stars [lo, hi), in frontier order, one block of expandBlock
// stars at a time, until the table holds opt.MaxSpiders stars (if set):
// the block that fills it is cut there, and no later block is built.
// Each block is sharded across workers; its per-item outputs are copied
// into the table in frontier order, so the table is the same for any
// worker count.
func (sm *StarMiner) expandLevel(ctx context.Context, lo, hi, sigma int, opt Options) error {
	t := &sm.out
	if sm.expFn == nil {
		sm.expFn = func(w, i int) {
			s := sm.curScrs[w]
			rLo, hLo := len(s.recs), len(s.hosts)
			sm.expand(sm.curLo+i, sm.curSigma, s)
			sm.spans[i] = expandSpan{w: w, rLo: rLo, rHi: len(s.recs), hLo: hLo, hHi: len(s.hosts)}
		}
	}
	if need := min(expandBlock, hi-lo); len(sm.spans) < need {
		sm.spans = make([]expandSpan, need)
	}
	recs0, hosts0 := len(t.recs), len(t.hosts)
	builtRecs, builtHosts := 0, 0
	for b := lo; b < hi; b += expandBlock {
		if opt.MaxSpiders > 0 && len(t.recs) >= opt.MaxSpiders {
			return nil
		}
		n := min(expandBlock, hi-b)
		wk := par.Bound(n, opt.Workers)
		scrs := sm.ws.For(wk)
		for _, s := range scrs {
			s.recs, s.hosts = s.recs[:0], s.hosts[:0]
			s.fit(len(t.labels))
		}
		sm.curSigma, sm.curLo, sm.curScrs = sigma, b, scrs
		err := par.Do(ctx, n, wk, sm.expFn)
		sm.curScrs = nil
		if err != nil {
			return err
		}
		nr, nh := 0, 0
		for _, s := range scrs {
			nr += len(s.recs)
			nh += len(s.hosts)
		}
		if sm.blockSeen != nil {
			sm.blockSeen(n, nr)
		}

		// Size a grown table for the whole level, extrapolated from the
		// blocks built so far, since growing copies the table.
		builtRecs += nr
		builtHosts += nh
		wantRecs := recs0 + scale(builtRecs, hi-lo, b+n-lo)
		spans := sm.spans[:n]
		if opt.MaxSpiders > 0 {
			wantRecs = min(wantRecs, opt.MaxSpiders)
			if room := opt.MaxSpiders - len(t.recs); nr > room {
				spans, nr, nh = cutBlock(spans, scrs, room)
			}
		}
		wantHosts := hosts0 + scale(builtHosts, wantRecs-recs0, builtRecs)
		if len(t.hosts)+nh > maxTableHosts {
			return errTableFull
		}
		t.grow(nr, nh, wantRecs, wantHosts)
		for _, sp := range spans {
			s := scrs[sp.w]
			h := sp.hLo
			for _, r := range s.recs[sp.rLo:sp.rHi] {
				cnt := int(r.hostEnd)
				t.hosts = append(t.hosts, s.hosts[h:h+cnt]...)
				h += cnt
				r.hostEnd = int32(len(t.hosts))
				t.recs = append(t.recs, r)
			}
		}
	}
	return nil
}

// cutBlock trims a block's spans to their first room records in frontier
// order, returning the spans left and the records and hosts they hold.
func cutBlock(spans []expandSpan, scrs []*starScratch, room int) ([]expandSpan, int, int) {
	nr, nh := 0, 0
	for k, sp := range spans {
		if sp.rHi-sp.rLo >= room {
			for _, r := range scrs[sp.w].recs[sp.rLo : sp.rLo+room] {
				nh += int(r.hostEnd)
			}
			spans[k].rHi = sp.rLo + room
			return spans[:k+1], nr + room, nh
		}
		room -= sp.rHi - sp.rLo
		nr += sp.rHi - sp.rLo
		nh += sp.hHi - sp.hLo
	}
	return spans, nr, nh
}

// scale returns x·num/den rounded down, in floating point so the product
// cannot overflow (0 when den is 0).
func scale(x, num, den int) int {
	if den == 0 {
		return 0
	}
	return int(float64(x) * float64(num) / float64(den))
}

// grow makes room in the table for nr more stars and nh more hosts. An
// array that must grow is reallocated to at least want entries, and to at
// least twice what it held, so levels smaller than the table, or larger
// than their estimate, still grow it geometrically, up to the offset
// bound.
func (t *Stars) grow(nr, nh, wantRecs, wantHosts int) {
	t.recs = growTo(t.recs, len(t.recs)+nr, wantRecs)
	t.hosts = growTo(t.hosts, len(t.hosts)+nh, wantHosts)
}

func growTo[T any](s []T, need, want int) []T {
	if need <= cap(s) {
		return s
	}
	c := max(need, min(max(want, 2*cap(s)), maxTableHosts))
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

// expand appends to s the frequent one-leaf extensions of table star p
// whose new leaf rank is >= the star's last leaf rank (canonical
// generation order), in ascending order of the new rank, each with its
// hosts ascending.
//
// One walk per host over its neighbor ranks from the last leaf's rank up:
// a host can take one more leaf of rank r when r's run there is longer
// than the star's leaves of rank r, which can only be nonzero for the
// last leaf's rank, where the record keeps the run. The host lists come
// out ascending because p's are, and appending a rank >= the last keeps
// the leaf multiset sorted.
func (sm *StarMiner) expand(p, sigma int, s *starScratch) {
	parent := sm.out.recs[p]
	lastRank := parent.leaf
	lastNeed := int(parent.run) + 1

	// Count: cnt[r] hosts can take rank r; obs keeps the observations.
	obs := s.obs[:0]
	hiRank := int32(-1)
	for _, v := range sm.out.Hosts(p) {
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
	base := len(s.hosts)
	s.hosts = slices.Grow(s.hosts, int(total))[:base+int(total)]
	block := s.hosts[base:]
	for _, o := range obs {
		if s.cnt[o.r] != 0 {
			block[s.pos[o.r]] = o.v
			s.pos[o.r]++
		}
	}
	for _, r := range ranks {
		run := int32(1)
		if r == lastRank {
			run = parent.run + 1
		}
		s.recs = append(s.recs, starRec{head: parent.head, parent: int32(p), leaf: r, run: run, leaves: parent.leaves + 1, hostEnd: s.cnt[r]})
		s.cnt[r] = 0
	}
}

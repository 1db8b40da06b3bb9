package spider

import (
	"context"
	"math/bits"
	"slices"

	"repro/internal/graph"
)

// StarMiner is the reusable Stage I engine: it mines the frequent stars of
// a host graph level-wise into a flat star table (see Stars), owning that
// table and every scratch structure the enumeration needs, each grown once
// and reused across runs. It runs on the caller's goroutine. The zero
// value is ready to use.
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
//   - level 1: flat (head, leaf, host) triples sorted by the total order
//     (head, leaf, host), then counted and written to the table;
//   - expansion: a level's frontier — the previous level's stars, a range
//     of the table — is expanded one star at a time, in order, and each
//     star's extensions are written straight into the table (see expand).
type StarMiner struct {
	out     Stars   // the table Mine returns; out.labels is the rank table
	rank    []int32 // vertex -> rank of its label
	nbrFlat []int32
	nbrOff  []int32
	triples []pairTriple

	// expand's per-rank tallies: cnt[r] counts the hosts that can take one
	// more leaf of rank r, seen marks each counted rank with one bit, obs
	// records every (rank, host) observation, ranks lists the frequent
	// ranks and pos[r] is rank r's placement cursor. cnt and seen are zero
	// between calls (expand clears what it set); pos is read only where
	// expand set it. They only ever grow: a new array starts zeroed.
	cnt   []int32
	pos   []int32
	seen  []uint64
	obs   []rankHost
	ranks []int32

	// starSeen, when set (tests only), observes every expanded frontier
	// star: its table index and how many frequent extensions it has,
	// counted before the cap cuts any.
	starSeen func(p, found int)
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

// rankHost is one expansion observation: host v can take one more leaf
// of rank r.
type rankHost struct {
	r int32
	v graph.V
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
	sigma := max(opt.MinSupport, 1)
	maxLeaves := opt.MaxLeaves
	if maxLeaves <= 0 {
		maxLeaves = g.MaxDegree()
	}
	t := &sm.out
	t.recs, t.hosts = t.recs[:0], t.hosts[:0]
	done := ctx.Done()
	if err := poll(ctx, done); err != nil {
		return t, err
	}

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
	if nl := len(t.labels); len(sm.cnt) < nl {
		sm.cnt = make([]int32, nl)
		sm.pos = make([]int32, nl)
		sm.seen = make([]uint64, (nl+63)/64)
	}

	// Per-vertex sorted neighbor-rank table, CSR-shaped, and level 1's
	// (head, leaf, host) triples, one per vertex and distinct neighbor
	// rank, sorted by the total order.
	sm.nbrOff = growI32(sm.nbrOff, n+1)
	total := 0
	for v := 0; v < n; v++ {
		sm.nbrOff[v] = int32(total)
		total += g.Degree(graph.V(v))
	}
	sm.nbrOff[n] = int32(total)
	sm.nbrFlat = growI32(sm.nbrFlat, total)
	triples := sm.triples[:0]
	for v := 0; v < n; v++ {
		seg := sm.nbrRanks(graph.V(v))
		for i, w := range g.Neighbors(graph.V(v)) {
			seg[i] = sm.rank[w]
		}
		slices.Sort(seg)
		prev := int32(-1) // no rank is negative
		for _, r := range seg {
			if r != prev {
				triples = append(triples, pairTriple{head: sm.rank[v], leaf: r, v: graph.V(v)})
				prev = r
			}
		}
	}
	sm.triples = triples
	if err := poll(ctx, done); err != nil {
		return t, err
	}
	slices.SortFunc(triples, cmpTriple)
	if err := sm.level1(sigma, opt.MaxSpiders); err != nil {
		return t, err
	}

	// A level that adds nothing, because the table is full, ends the loop.
	lo, hi := 0, len(t.recs)
	for level := 1; level < maxLeaves && lo < hi; level++ {
		if err := sm.expandLevel(ctx, lo, hi, sigma, opt.MaxSpiders); err != nil {
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

// poll returns ctx's error if it has fired, without blocking; done is
// ctx.Done(), and a nil done (a context that cannot be cancelled) costs
// nothing.
func poll(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
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
	t.recs = growTo(t.recs, stars, stars, 0)
	t.hosts = growTo(t.hosts, hosts, hosts, 0)
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

// frontier is the level being built: its parents are the table's stars
// [lo, hi), the table held recs0 stars and hosts0 hosts before its first
// extension, and maxSpiders is the run's cap (0 = none).
type frontier struct {
	lo, hi, recs0, hosts0, maxSpiders int
}

// expandLevel appends to the table the one-leaf extensions of the
// frontier stars [lo, hi), in frontier order, until the table holds
// maxSpiders stars (if set): the star that fills it is cut there, and no
// later frontier star is expanded. It polls ctx before every frontier
// star.
func (sm *StarMiner) expandLevel(ctx context.Context, lo, hi, sigma, maxSpiders int) error {
	t, done := &sm.out, ctx.Done()
	f := frontier{lo: lo, hi: hi, recs0: len(t.recs), hosts0: len(t.hosts), maxSpiders: maxSpiders}
	for p := lo; p < hi; p++ {
		room := maxTableHosts
		if maxSpiders > 0 {
			if room = maxSpiders - len(t.recs); room <= 0 {
				return nil
			}
		}
		if err := poll(ctx, done); err != nil {
			return err
		}
		if err := sm.expand(p, sigma, room, &f); err != nil {
			return err
		}
	}
	return nil
}

// expand appends to the table the frequent one-leaf extensions of table
// star p whose new leaf rank is >= the star's last leaf rank (canonical
// generation order), in ascending order of the new rank, each with its
// hosts ascending, and keeps only the first room of them.
//
// One walk per host over its neighbor ranks from the last leaf's rank up:
// a host can take one more leaf of rank r when r's run there is longer
// than the star's leaves of rank r, which can only be nonzero for the
// last leaf's rank, where the record keeps the run. The host lists come
// out ascending because p's are, and appending a rank >= the last keeps
// the leaf multiset sorted. The count tells how many stars and hosts the
// extensions take before any is placed, so the table grows first and
// the hosts go straight to their place in it.
func (sm *StarMiner) expand(p, sigma, room int, f *frontier) error {
	t := &sm.out
	parent := t.recs[p] // a copy: growing the table may move the records
	lastRank := parent.leaf
	lastNeed := int(parent.run) + 1

	// Count: cnt[r] hosts can take rank r; obs keeps the observations.
	obs := sm.obs[:0]
	hiRank := int32(-1)
	for _, v := range t.Hosts(p) {
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
				if sm.cnt[r] == 0 {
					sm.seen[r>>6] |= 1 << (r & 63)
					hiRank = max(hiRank, r)
				}
				sm.cnt[r]++
				obs = append(obs, rankHost{r: r, v: v})
			}
			i = j
		}
	}
	sm.obs = obs

	// Frequent ranks in ascending order, each given its span of the
	// star's hosts; infrequent ones are dropped here (cnt back to 0).
	ranks := sm.ranks[:0]
	var total int32
	for w := lastRank >> 6; w <= hiRank>>6; w++ {
		for word := sm.seen[w]; word != 0; word &= word - 1 {
			r := w<<6 | int32(bits.TrailingZeros64(word))
			if int(sm.cnt[r]) < sigma {
				sm.cnt[r] = 0
				continue
			}
			sm.pos[r] = total
			total += sm.cnt[r]
			ranks = append(ranks, r)
		}
		sm.seen[w] = 0
	}
	sm.ranks = ranks
	if sm.starSeen != nil {
		sm.starSeen(p, len(ranks))
	}
	if len(ranks) > room {
		// The star that fills the table is cut there: the spans are in
		// rank order, so the first room ranks' hosts are a prefix.
		total = sm.pos[ranks[room]]
		for _, r := range ranks[room:] {
			sm.cnt[r] = 0
		}
		ranks = ranks[:room]
	}
	if len(ranks) == 0 {
		return nil
	}
	if len(t.hosts)+int(total) > maxTableHosts {
		for _, r := range ranks {
			sm.cnt[r] = 0
		}
		return errTableFull
	}
	f.grow(t, p, len(ranks), int(total))

	// Place: obs is in host order, so every span fills ascending, and a
	// rank's cursor ends at its span's end.
	base := len(t.hosts)
	t.hosts = t.hosts[:base+int(total)]
	block := t.hosts[base:]
	for _, o := range obs {
		if sm.cnt[o.r] != 0 {
			block[sm.pos[o.r]] = o.v
			sm.pos[o.r]++
		}
	}
	for _, r := range ranks {
		run := int32(1)
		if r == lastRank {
			run = parent.run + 1
		}
		t.recs = append(t.recs, starRec{head: parent.head, parent: int32(p), leaf: r, run: run, leaves: parent.leaves + 1, hostEnd: int32(base) + sm.pos[r]})
		sm.cnt[r] = 0
	}
	return nil
}

// grow makes room in the table for the nr stars and nh hosts of frontier
// star p's extensions. Growing copies the table, so an array that must
// grow is sized for the whole level: what the frontier stars expanded so
// far built, extrapolated over the frontier, plus a sixteenth so that an
// estimate a sliver short does not grow it again, the stars capped at
// maxSpiders. It grows by at least half, so levels larger than their
// estimate still grow it geometrically, up to the offset bound. Measured
// on cold Stage I runs, a quarter's floor allocates up to half as much
// again on small hosts (GID-1, the serve-mixed hosts), whose early
// estimates fall short, and a doubling floor a sixth more on a capped
// 2,000,000-star table, than half does.
func (f *frontier) grow(t *Stars, p, nr, nh int) {
	if len(t.recs)+nr <= cap(t.recs) && len(t.hosts)+nh <= cap(t.hosts) {
		return
	}
	builtRecs := len(t.recs) + nr - f.recs0
	builtHosts := len(t.hosts) + nh - f.hosts0
	recs := scale(builtRecs, f.hi-f.lo, p+1-f.lo)
	if f.maxSpiders > 0 {
		recs = min(recs, f.maxSpiders-f.recs0)
	}
	hosts := scale(builtHosts, recs, builtRecs)
	recs += recs / 16
	if f.maxSpiders > 0 {
		recs = min(recs, f.maxSpiders-f.recs0)
	}
	t.recs = growTo(t.recs, len(t.recs)+nr, f.recs0+recs, cap(t.recs)/2)
	t.hosts = growTo(t.hosts, len(t.hosts)+nh, f.hosts0+hosts+hosts/16, cap(t.hosts)/2)
}

// scale returns x·num/den rounded down, in floating point so the product
// cannot overflow (0 when den is 0).
func scale(x, num, den int) int {
	if den == 0 {
		return 0
	}
	return int(float64(x) * float64(num) / float64(den))
}

// growTo returns s with room for need entries. If s must grow, it is
// reallocated to want entries, and by at least step more than it held,
// up to the offset bound.
func growTo[T any](s []T, need, want, step int) []T {
	if need <= cap(s) {
		return s
	}
	c := max(need, min(max(want, cap(s)+step), maxTableHosts))
	out := make([]T, len(s), c)
	copy(out, s)
	return out
}

package spidermine

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"repro/internal/canon"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/pattern"
	"repro/internal/spider"
	"repro/internal/support"
)

// Config parameterizes SpiderMine. Zero values get sensible defaults from
// (*Config).withDefaults.
type Config struct {
	// MinSupport is the support threshold σ (embeddings in the single-graph
	// setting; containing graphs in the transaction setting).
	MinSupport int
	// K is the number of patterns to return.
	K int
	// Epsilon is the error bound ε: the result contains the true top-K
	// with probability >= 1−ε.
	Epsilon float64
	// Dmax bounds the diameter of returned patterns.
	Dmax int
	// Radius is the spider radius r (default 1).
	Radius int
	// Vmin is the user's lower bound on the vertex count of a "large"
	// pattern, used only to compute M (default |V(G)|/10, the paper's
	// example setting).
	Vmin int
	// Measure is the support measure used in every σ-comparison. The
	// default CountAll counts distinct embedding subgraphs, matching
	// Definition 2's Psup = E[P] (and Algorithm 3 line 16); HarmfulOverlap
	// is the Fiedler–Borgelt measure the paper adopts for graphs with few
	// labels where raw embeddings overlap heavily (e.g. the DBLP data).
	Measure support.Measure
	// MaxLeavesPerStar caps star spider size in Stage I (0 = unlimited).
	MaxLeavesPerStar int
	// Seed seeds all randomness; runs are deterministic per seed.
	Seed int64
	// Restarts reruns the randomized Stages II–III this many times and
	// unions the results (§4.2.1 notes spider mining is a one-time cost
	// that multiple randomized runs can amortize). Default 1.
	Restarts int
	// DisableSpiderSetPruning turns off the spider-set signature filter
	// (ablation; every identity check falls through to the exact check).
	DisableSpiderSetPruning bool
	// KeepUnmerged disables Stage II pruning (ablation: all grown seeds
	// survive to Stage III).
	KeepUnmerged bool
	// MaxSpiders caps Stage I enumeration (0 = unlimited).
	MaxSpiders int
	// MaxEmbPerPattern caps the embedding list carried per pattern
	// (default 1024). On dense low-label graphs raw embedding lists grow
	// combinatorially; trimming makes counted support a lower bound, which
	// can only lose patterns, never admit false ones.
	MaxEmbPerPattern int
	// Workers sets the mining parallelism of Stages II and III: 0/1
	// sequential, > 1 that many goroutines, < 0 GOMAXPROCS. It shards
	// growth and merge-group evaluation; every pass reduces its per-worker
	// results in a fixed item order, so the Result and every Stats counter
	// except the stage durations are the same for any setting (see
	// TestParallelEqualsSequential). Stage I and the seed draw run on the
	// calling goroutine: sharding them did not pay on the 2 vCPUs they
	// were measured on.
	Workers int
	// OnProgress, when non-nil, receives streaming stage events: Stage I
	// completion, each restart's seed draw, and every grow+merge /
	// recovery iteration. Events are delivered synchronously on the
	// coordinating goroutine between parallel sections — never
	// concurrently — so a callback may cancel the run's context and the
	// cancellation is observed at the very next iteration boundary, which
	// makes the resulting partial Result deterministic (the committed
	// state the callback just saw). Events never influence mining state.
	OnProgress func(StageEvent)
}

// Stage names reported in StageEvent.Stage.
const (
	StageSpiders  = "spiders"  // Stage I: frequent r-spider mining done
	StageSeeds    = "seeds"    // Stage II: seed draw + materialization done
	StageGrowth   = "growth"   // Stage II: one grow+merge iteration done
	StageRecovery = "recovery" // Stage III: one maximality iteration done
	StageDone     = "done"     // final top-K selected
)

// StageEvent is one streaming progress report from a mining run; see
// Config.OnProgress for the delivery contract.
type StageEvent struct {
	Stage     string        // one of the Stage* constants
	Restart   int           // randomized restart index (Stages II/III events)
	Iteration int           // 1-based iteration within the stage
	Spiders   int           // |S_all| (StageSpiders only)
	Patterns  int           // current working-set / result size
	Merges    int           // cumulative successful merges
	Elapsed   time.Duration // wall-clock since RunContext started
}

func (c Config) withDefaults(g *graph.Graph) Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.K <= 0 {
		c.K = 10
	}
	if c.Epsilon <= 0 || c.Epsilon >= 1 {
		c.Epsilon = 0.1
	}
	if c.Dmax <= 0 {
		c.Dmax = 4
	}
	if c.Radius <= 0 {
		c.Radius = 1
	}
	if c.Vmin <= 0 {
		c.Vmin = g.N() / 10
		if c.Vmin < 1 {
			c.Vmin = 1
		}
	}
	if c.Restarts <= 0 {
		c.Restarts = 1
	}
	if c.MaxEmbPerPattern <= 0 {
		c.MaxEmbPerPattern = 1024
	}
	return c
}

// Stats reports per-run counters.
type Stats struct {
	NumSpiders     int           // |S_all| mined in Stage I
	M              int           // seed draw size (Lemma 2)
	GrowIterations int           // total SpiderGrow iterations
	Merges         int           // successful CheckMerge events
	MergeSkipped   int           // merge groups resolved as failed without evaluation: the pair failed last round and neither pattern grew since
	IsoSkipped     int64         // isomorphism tests skipped by spider-set pruning
	IsoRun         int64         // exact isomorphism tests executed (work counter)
	CanonRun       int64         // canonical-code computations by the miner's Canonizer (spider-set signatures + exact identity checks)
	CanonNodes     int64         // individualization–refinement search nodes across those runs; CanonNodes/CanonRun quantifies the orbit/trace pruning
	StageI         time.Duration // spider mining time
	StageII        time.Duration // growth + merge time
	StageIII       time.Duration // recovery time
}

func (s Stats) String() string {
	return fmt.Sprintf("stats{spiders=%d M=%d iters=%d merges=%d mergeSkip=%d isoSkip=%d isoRun=%d canonRun=%d canonNodes=%d tI=%v tII=%v tIII=%v}",
		s.NumSpiders, s.M, s.GrowIterations, s.Merges, s.MergeSkipped, s.IsoSkipped, s.IsoRun, s.CanonRun, s.CanonNodes, s.StageI, s.StageII, s.StageIII)
}

// Result is the output of a mining run.
type Result struct {
	// Patterns holds up to K patterns sorted by size (edge count)
	// descending, structurally distinct, each with |E[P]| >= σ and
	// diam <= Dmax.
	Patterns []*pattern.Pattern
	Stats    Stats
}

// Miner carries the mining state for one host graph.
type Miner struct {
	g      *graph.Graph
	cfg    Config
	rng    *rand.Rand
	stats  Stats
	nextID int
	// cz is the miner-owned Canonizer every coordinator-side pattern
	// identity check routes through (spider-set signatures and exact
	// canonical-code comparisons); its counters feed Stats.CanonRun /
	// CanonNodes. Identity checks run sequentially on the coordinator, so
	// one scratch instance serves the whole run.
	cz *canon.Canonizer
	// ctx/done carry the run's cancellation signal; set by RunContext.
	// done is nil for an uncancellable context, which gates every
	// cancellation check and snapshot off the hot path — a Background run
	// executes exactly the pre-context code.
	ctx   context.Context
	done  <-chan struct{}
	start time.Time
	// supFn maps a pattern graph and embedding list to its σ-comparable
	// support. The single-graph setting applies cfg.Measure; the
	// transaction adapter counts distinct transaction graphs.
	supFn func(*graph.Graph, []pattern.Embedding) int
	// freqPairs is the flat, sorted (head label, leaf label) index of
	// frequent spider edges — the unit of growth. extendAt resolves the
	// head's contiguous run once per boundary vertex, then binary-searches
	// leaves within it. Built from the Stage I stars when the run starts.
	freqPairs []labelPair
	// stars is Stage I's output, S_all, as spider.MineStarsShared returns
	// it: level by level, each level in head-then-leaves order. It may be
	// the table of an earlier mine of the same host, read by other mines
	// at once, so the Miner only reads it.
	stars *spider.Stars
	// sd owns the Stage II seed-draw scratch (permutation buffer,
	// Materializer), and matcher the search state that materializes tree
	// seeds; both serve every restart.
	sd      spider.Seeder
	matcher canon.Matcher
	// trees holds the r-spider seed population when cfg.Radius >= 2.
	trees []*spider.MinedTree
	// selBFS is the coordinator's BFS scratch for selection's diameter
	// filter.
	selBFS graph.BFS
	// Merge-round state, grown once and reused across rounds and restarts
	// (checkMerges): the overlap index and candidate scan, the
	// candidate (pair, embedding-pair) entries and the group table handed
	// to the evaluators, the prepared parent images, and the restart's
	// failed pairs.
	scan       mergeScan
	mergeCands []mergeCand
	pairGroups []pairGroup
	images     mergeImages
	failed     failedPairs
	// Merge-wave state (mergeWaves): per-pattern consumed flags and wave
	// stamps, the current wave's groups with their results, and the
	// round's accepted merges.
	consumed  par.Slots[bool]
	waveStamp par.Slots[int32]
	wave      []waveItem
	accepted  []waveItem
	// waveSeen, when set (tests only), observes every evaluated merge wave
	// on the coordinator, before its merges consume their patterns, and
	// roundSeen every working set checkMerges is handed, before its round.
	waveSeen  func(wave []waveItem)
	roundSeen func(ws []*grown)
	// Per-worker scratch arenas: worker i owns slot i for the duration of
	// one parallel pass (the par.Do ownership contract). Allocated
	// per-worker-once, reused across iterations and restarts.
	growWS  par.Workspace[growScratch]
	mergeWS par.Workspace[mergeScratch]
	isoRuns par.Slots[int64]
}

// labelPair is one frequent (head, leaf) spider-edge entry of the flat
// frequent-pair index, ordered by (h, l).
type labelPair struct{ h, l graph.Label }

func cmpLabelPair(a, b labelPair) int {
	if a.h != b.h {
		return int(a.h) - int(b.h)
	}
	return int(a.l) - int(b.l)
}

// freqLeavesOf returns the contiguous run of frequent-pair entries whose
// head is h (possibly empty). Callers binary-search leaves within it.
func (m *Miner) freqLeavesOf(h graph.Label) []labelPair {
	lo, _ := slices.BinarySearchFunc(m.freqPairs, labelPair{h: h, l: graph.Label(minInt32)}, cmpLabelPair)
	hi := lo
	for hi < len(m.freqPairs) && m.freqPairs[hi].h == h {
		hi++
	}
	return m.freqPairs[lo:hi]
}

// leafIndex returns the position of leaf label l in a head's run and
// whether it occurs there.
func leafIndex(run []labelPair, l graph.Label) (int, bool) {
	return slices.BinarySearchFunc(run, labelPair{l: l}, func(a, b labelPair) int { return int(a.l) - int(b.l) })
}

const minInt32 = -1 << 31

// New prepares a Miner for one run on the host graph.
func New(g *graph.Graph, cfg Config) *Miner {
	cfg = cfg.withDefaults(g)
	m := &Miner{g: g, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), cz: canon.NewCanonizer()}
	if cfg.Measure == support.CountAll {
		m.supFn = func(_ *graph.Graph, embs []pattern.Embedding) int { return len(embs) }
	} else {
		m.supFn = func(pg *graph.Graph, embs []pattern.Embedding) int {
			return support.Of(pg, embs, cfg.Measure)
		}
	}
	return m
}

// MineContext runs the full three-stage algorithm under ctx and returns
// the top-K result; see RunContext for the partial-result contract.
func MineContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	return New(g, cfg).RunContext(ctx)
}

// cancelled reports the run's context error once the context has fired.
// It is a no-op (nil done channel, no select) for uncancellable runs.
func (m *Miner) cancelled() error {
	if m.done == nil {
		return nil
	}
	select {
	case <-m.done:
		return m.ctx.Err()
	default:
		return nil
	}
}

// progress delivers one stage event to the configured callback.
func (m *Miner) progress(ev StageEvent) {
	if m.cfg.OnProgress == nil {
		return
	}
	ev.Elapsed = time.Since(m.start)
	m.cfg.OnProgress(ev)
}

// RunContext executes Algorithm 1 under ctx.
//
// An uncancelled run returns the same Result whether or not ctx can be
// cancelled — the cancellation plumbing is gated off the hot path entirely when
// ctx.Done() is nil and adds only amortized boundary checks otherwise.
// When ctx fires, RunContext returns ctx.Err() together with a partial
// Result holding the top-K selection over the patterns of the last
// *committed* iteration: every grow+merge and recovery iteration commits
// its reduced working set before the next cancellation check, and an
// iteration aborted mid-flight is rolled back wholesale. Cancellation
// observed at a given iteration boundary therefore yields a deterministic
// partial result (the fingerprint contract TestCancelDeterministic
// enforces); which boundary a wall-clock cancel lands on is, of course,
// timing-dependent.
func (m *Miner) RunContext(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	m.ctx = ctx
	m.done = ctx.Done()
	m.start = time.Now()

	// Stage I: mine all r-spiders. Stars always back the growth procedure
	// (growth proceeds in radius-1 steps); with Radius >= 2, tree spiders
	// are additionally mined as the seed population — at exponentially
	// higher Stage I cost, as Appendix C(3) documents. The star table is
	// shared: an earlier mine's table of the same host and Stage I options
	// is reused while it is alive, so a context that has already fired is
	// polled first.
	t0 := time.Now()
	if err := m.cancelled(); err != nil {
		return &Result{Stats: m.stats}, err
	}
	stars, starErr := spider.MineStarsShared(ctx, m.g, spider.Options{
		MinSupport: m.cfg.MinSupport,
		MaxLeaves:  m.cfg.MaxLeavesPerStar,
		Radius:     1,
		MaxSpiders: m.cfg.MaxSpiders,
	})
	if starErr != nil {
		m.stats.StageI = time.Since(t0)
		return &Result{Stats: m.stats}, starErr
	}
	m.indexStars(stars)
	m.stats.NumSpiders = stars.Len()
	if m.cfg.Radius >= 2 {
		maxSpiders := m.cfg.MaxSpiders
		if maxSpiders <= 0 {
			maxSpiders = 1 << 20
		}
		var treeErr error
		m.trees, treeErr = spider.MineTreesContext(ctx, m.g, spider.TreeOptions{
			MinSupport: m.cfg.MinSupport,
			Radius:     m.cfg.Radius,
			MaxFanout:  4,
			MaxSpiders: maxSpiders,
		})
		m.stats.NumSpiders = len(m.trees)
		if treeErr != nil {
			m.stats.StageI = time.Since(t0)
			return &Result{Stats: m.stats}, treeErr
		}
	}
	m.stats.StageI = time.Since(t0)
	m.progress(StageEvent{Stage: StageSpiders, Spiders: m.stats.NumSpiders})

	// M from Lemma 2.
	M := spider.ComputeM(m.g.N(), m.cfg.Vmin, m.cfg.K, m.cfg.Epsilon)
	m.stats.M = M

	var finals []*pattern.Pattern
	for restart := 0; restart < m.cfg.Restarts; restart++ {
		ps, err := m.runOnce(restart, M)
		finals = append(finals, ps...)
		if err != nil {
			return &Result{Patterns: m.selectPatterns(finals), Stats: m.stats}, err
		}
	}
	top := m.selectPatterns(finals)
	m.progress(StageEvent{Stage: StageDone, Patterns: len(top), Merges: m.stats.Merges})
	return &Result{Patterns: top, Stats: m.stats}, nil
}

// indexStars keeps Stage I's stars for the seed draw and rebuilds the
// flat frequent-pair index from them. The index is built from the
// single-leaf stars, the table's first level, and sorted, so lookup order
// is independent of the table's order.
func (m *Miner) indexStars(stars *spider.Stars) {
	m.stars = stars
	m.freqPairs = m.freqPairs[:0]
	var leaf [1]graph.Label
	for i := 0; i < stars.Len() && stars.NumLeaves(i) == 1; i++ {
		m.freqPairs = append(m.freqPairs, labelPair{h: stars.Head(i), l: stars.AppendLeaves(leaf[:0], i)[0]})
	}
	slices.SortFunc(m.freqPairs, cmpLabelPair)
}

// maxGrowIters caps Stage III iterations (a safety valve).
const maxGrowIters = 64

// runOnce performs Stages II and III for one random restart. On
// cancellation it returns the patterns of the last committed iteration
// (see RunContext) together with the context error.
func (m *Miner) runOnce(restart, M int) ([]*pattern.Pattern, error) {
	// Stage II: random seeds, then at most ⌈Dmax/2r⌉ growth+merge
	// iterations. An iteration that grows no pattern and accepts no merge
	// ends it: every pattern is then done, so each later iteration would
	// scan the same patterns, resolve the same failures and evaluate the
	// same cut groups, to the same end.
	t1 := time.Now()
	m.failed.reset()
	seeds, err := m.seedPatterns(M, m.trees, m.rng)
	if err != nil {
		m.stats.StageII += time.Since(t1)
		return nil, err
	}
	working := make([]*grown, 0, len(seeds))
	for _, p := range seeds {
		p.ID = m.newID()
		p.DedupeEmbeddings()
		if m.supFn(p.G, p.Emb) < m.cfg.MinSupport {
			continue
		}
		working = append(working, &grown{p: p, radius: m.cfg.Radius})
	}
	m.progress(StageEvent{Stage: StageSeeds, Restart: restart, Patterns: len(working)})
	iters := (m.cfg.Dmax + 2*m.cfg.Radius - 1) / (2 * m.cfg.Radius) // ⌈Dmax/2r⌉
	committed := m.commit(working)
	for i := 0; i < iters; i++ {
		if err := m.cancelled(); err != nil {
			m.stats.StageII += time.Since(t1)
			return patternsOf(committed), err
		}
		grew, err := m.growAll(working)
		if err != nil {
			m.stats.StageII += time.Since(t1)
			return patternsOf(committed), err
		}
		merges := m.stats.Merges
		working, err = m.checkMerges(working)
		if err != nil {
			m.stats.StageII += time.Since(t1)
			return patternsOf(committed), err
		}
		m.stats.GrowIterations++
		committed = m.commit(working)
		m.progress(StageEvent{Stage: StageGrowth, Restart: restart, Iteration: i + 1, Patterns: len(working), Merges: m.stats.Merges})
		if !grew && m.stats.Merges == merges {
			break
		}
	}
	// Prune unmerged patterns (Algorithm 1 line 10).
	var survivors []*grown
	for _, w := range working {
		if w.p.Merged || m.cfg.KeepUnmerged {
			survivors = append(survivors, w)
		}
	}
	if len(survivors) == 0 {
		// No merges happened (e.g. very sparse embedding overlap). Rather
		// than return nothing, fall back to the largest grown seeds — a
		// practical safeguard the paper does not need on its datasets.
		survivors = fallbackLargest(working, m.cfg.K)
	}
	m.stats.StageII += time.Since(t1)

	// Stage III: grow to maximality.
	t2 := time.Now()
	committed = m.commit(survivors)
	for iter := 0; iter < maxGrowIters; iter++ {
		if err := m.cancelled(); err != nil {
			m.stats.StageIII += time.Since(t2)
			return patternsOf(committed), err
		}
		any, err := m.growAll(survivors)
		if err != nil {
			m.stats.StageIII += time.Since(t2)
			return patternsOf(committed), err
		}
		survivors, err = m.checkMerges(survivors)
		if err != nil {
			m.stats.StageIII += time.Since(t2)
			return patternsOf(committed), err
		}
		m.stats.GrowIterations++
		committed = m.commit(survivors)
		m.progress(StageEvent{Stage: StageRecovery, Restart: restart, Iteration: iter + 1, Patterns: len(survivors), Merges: m.stats.Merges})
		if !any {
			break
		}
	}
	m.stats.StageIII += time.Since(t2)

	out := make([]*pattern.Pattern, 0, len(survivors))
	for _, w := range survivors {
		out = append(out, w.p)
	}
	return out, nil
}

// commit snapshots the working set at an iteration boundary so a later
// aborted iteration can be rolled back wholesale: growPattern and
// tryMerge replace a pattern's graph and embedding list with freshly
// built values (they never mutate the old ones in place), so a shallow
// copy of each Pattern struct pins the committed state. For uncancellable
// runs (nil done channel) commit does nothing and returns nil.
func (m *Miner) commit(ws []*grown) []*grown {
	if m.done == nil {
		return nil
	}
	out := make([]*grown, len(ws))
	for i, w := range ws {
		p := *w.p
		out[i] = &grown{p: &p, radius: w.radius, done: w.done}
	}
	return out
}

// patternsOf unwraps a working set into its patterns.
func patternsOf(ws []*grown) []*pattern.Pattern {
	out := make([]*pattern.Pattern, 0, len(ws))
	for _, w := range ws {
		out = append(out, w.p)
	}
	return out
}

// grown pairs a pattern with its current growth radius from its origin.
type grown struct {
	p      *pattern.Pattern
	radius int
	done   bool // no further frequent extension exists
}

func (m *Miner) newID() int {
	m.nextID++
	return m.nextID
}

func fallbackLargest(ws []*grown, k int) []*grown {
	sorted := append([]*grown(nil), ws...)
	slices.SortFunc(sorted, func(a, b *grown) int { return b.p.Size() - a.p.Size() })
	if len(sorted) > k {
		sorted = sorted[:k]
	}
	return sorted
}

// selectPatterns dedupes structurally equal patterns, filters σ and Dmax,
// and returns the K largest by edge count (ties: more vertices, then
// higher support, then stable by ID). A cancelled run's partial result is
// selected the same way, so it is deterministic for a fixed cancellation
// boundary (TestCancelDeterministic) and free of duplicates. The Dmax
// filter is the threshold test DiameterAtMost, which agrees with
// Diameter() <= Dmax on connected graphs, and every pattern reaching
// selection is connected: seeds are spiders, growth appends leaves and
// merges accept connected unions only (TestSelectedPatternsConnected).
func (m *Miner) selectPatterns(ps []*pattern.Pattern) []*pattern.Pattern {
	var kept []*pattern.Pattern
	for _, p := range ps {
		if m.supFn(p.G, p.Emb) < m.cfg.MinSupport {
			continue
		}
		if !m.selBFS.DiameterAtMost(p.G, m.cfg.Dmax) {
			continue
		}
		dup := false
		for _, q := range kept {
			if m.sameStructure(p, q) {
				dup = true
				// Keep the one with more embeddings.
				if len(p.Emb) > len(q.Emb) {
					*q = *p
				}
				break
			}
		}
		if !dup {
			kept = append(kept, p)
		}
	}
	sortBySize(kept)
	if len(kept) > m.cfg.K {
		kept = kept[:m.cfg.K]
	}
	return kept
}

// sortBySize orders patterns the way results are reported: edge count
// descending, then vertices, then embeddings, then stable by ID.
func sortBySize(ps []*pattern.Pattern) {
	slices.SortFunc(ps, func(a, b *pattern.Pattern) int {
		if a.Size() != b.Size() {
			return b.Size() - a.Size()
		}
		if a.NV() != b.NV() {
			return b.NV() - a.NV()
		}
		if len(a.Emb) != len(b.Emb) {
			return len(b.Emb) - len(a.Emb)
		}
		return a.ID - b.ID
	})
}

// sameStructure decides pattern identity the way §4.2.2 prescribes: the
// spider-set signature is the cheap necessary condition (Theorem 2), and
// only signature-equal pairs pay for an exact check — a comparison of
// per-pattern cached canonical codes, so each pattern canonicalizes at
// most once however many pairs it appears in. With the pruning disabled
// (ablation), every size-compatible pair goes straight to the exact
// check, so Stats.IsoRun exposes the pruning's value. All
// canonicalization routes through the miner's Canonizer, whose counters
// land in Stats.CanonRun / CanonNodes.
func (m *Miner) sameStructure(a, b *pattern.Pattern) bool {
	same := false
	switch {
	case a.G.N() != b.G.N() || a.G.M() != b.G.M():
	case !m.cfg.DisableSpiderSetPruning &&
		a.SpiderSetSignatureWith(m.cz, m.cfg.Radius) != b.SpiderSetSignatureWith(m.cz, m.cfg.Radius):
		m.stats.IsoSkipped++
	default:
		m.stats.IsoRun++
		same = a.CanonicalCodeWith(m.cz) == b.CanonicalCodeWith(m.cz)
	}
	m.stats.CanonRun = m.cz.Runs
	m.stats.CanonNodes = m.cz.Nodes
	return same
}

package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/internal/canon"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/spider"
	"repro/internal/spidermine"
	"repro/mine"
)

// The spidermine settings of the two mining workloads, without the seed:
// the paper's Table-1 setting on GID-1, and the README's capped BA-5k
// recipe at 2 workers.
var (
	gid1Opts = mine.Options{MinSupport: 2, K: 10, Dmax: 4, Workers: 1}
	ba5kOpts = mine.Options{MinSupport: 3, K: 3, Dmax: 4, MaxLeavesPerStar: 6, MaxSpiders: 500000, Workers: 2}
)

// missed stands for the latency of a failed operation: it misses every
// percentile.
const missed = math.MaxFloat64

// runGID1Sweep mines the paper's Table-1 GID-1 host (host seed 1: 400
// vertices, 767 edges) sequentially through the façade. A trial mines
// seeds s … s+n−1; trials repeat while another fits in the measured time,
// at least sz.gidMinTrials of them.
func runGID1Sweep(b *bench) error {
	var host *graph.Graph
	if _, err := b.setup(func() (func(), error) {
		g, _ := gen.Synthetic(gen.GIDConfig(1, 1))
		for i := range b.sz.gidWarm {
			if _, err := mineOnce(g, gid1Opts, int64(-1-i), false); err != nil {
				return nil, err
			}
		}
		host = g
		return nil, nil
	}); err != nil {
		return err
	}
	seeds := make([]int64, b.sz.gidTrialSeeds)
	for j := range seeds {
		seeds[j] = b.seed + int64(j)
	}
	if b.trace {
		return b.traceGID1(host, seeds)
	}
	return b.sweep(host, gid1Opts, seeds, b.sz.gidMinTrials)
}

// runBA5kPar mines the BA-5k host (5000 vertices, attach 2, 50 labels,
// host seed 1) at 2 workers. Its timed runs mine a fixed pool of recipe
// seeds in an order drawn from --seed: single runs differ by up to 1.7×
// between recipe seeds, so the median of a few runs over seeds that moved
// with --seed would move more than any change worth detecting. The pool is
// mined in passes, at least two.
func runBA5kPar(b *bench) error {
	var host *graph.Graph
	if _, err := b.setup(func() (func(), error) {
		g := gen.BarabasiAlbert(b.sz.baN, 2, 50, rand.New(rand.NewSource(1)))
		if _, err := mineOnce(g, ba5kOpts, 0, false); err != nil {
			return nil, err
		}
		host = g
		return nil, nil
	}); err != nil {
		return err
	}
	pool := make([]int64, b.sz.baPool)
	for i, p := range rand.New(rand.NewSource(b.seed)).Perm(len(pool)) {
		pool[i] = int64(p + 1)
	}
	if b.trace {
		return b.traceBA5k(host, pool[:min(2, len(pool))])
	}
	return b.sweep(host, ba5kOpts, pool, 2)
}

// mined is one façade Mine call as the benchmark saw it.
type mined struct {
	res    *mine.Result
	wall   time.Duration
	events []mine.ProgressEvent // traced calls only
	alloc  uint64               // bytes allocated during a traced call
}

// mineOnce runs spidermine through the façade on host with opts at seed.
// A traced call records the progress events and the bytes allocated.
func mineOnce(host *graph.Graph, opts mine.Options, seed int64, traced bool) (mined, error) {
	m, err := mine.Get("spidermine")
	if err != nil {
		return mined{}, err
	}
	var out mined
	opts.Seed = seed
	var a0 uint64
	if traced {
		opts.OnProgress = func(ev mine.ProgressEvent) { out.events = append(out.events, ev) }
		a0 = allocatedBytes()
	}
	t0 := time.Now()
	out.res, err = m.Mine(context.Background(), mine.SingleGraph(host), opts)
	out.wall = time.Since(t0)
	if traced {
		out.alloc = allocatedBytes() - a0
	}
	if err != nil {
		return out, fmt.Errorf("mine seed %d: %w", seed, err)
	}
	return out, nil
}

// sweep mines every seed in order per trial, for at least minTrials
// trials and while another trial still fits in the measured time. The
// first trial's results are checked; later trials must reproduce them
// byte for byte. Every mine is one operation.
func (b *bench) sweep(host *graph.Graph, opts mine.Options, seeds []int64, minTrials int) error {
	var all []float64
	var first [][]byte
	m := startMeter()
	start := time.Now()
	for trial := 0; ; trial++ {
		t0 := time.Now()
		for j, seed := range seeds {
			r, err := mineOnce(host, opts, seed, false)
			if err == nil {
				err = b.checkTrial(trial, j, host, opts, r.res, &first)
			}
			b.op(err)
			all = append(all, latencyOf(r.wall, err))
		}
		if trial+1 >= minTrials && time.Since(start)+time.Since(t0) > b.seconds {
			break
		}
	}
	use := m.finish()
	b.endToEndMetrics(all, use, len(all))
	b.report("mines_per_s", "1/s", float64(len(all))/time.Since(start).Seconds(), nil)
	b.digest = digestOf(first)
	return nil
}

// checkTrial checks a result of the first trial and records its bytes;
// in later trials the result must equal the first trial's for that seed.
func (b *bench) checkTrial(trial, j int, host *graph.Graph, opts mine.Options, res *mine.Result, first *[][]byte) error {
	raw, err := resultBytes(res)
	if err != nil {
		return err
	}
	if trial == 0 {
		*first = append(*first, raw)
		return checkResult(host, opts, res)
	}
	if string(raw) != string((*first)[j]) {
		return fmt.Errorf("trial %d seed #%d: result differs from trial 0", trial, j)
	}
	return nil
}

func latencyOf(d time.Duration, err error) float64 {
	if err != nil {
		return missed
	}
	return ms(d)
}

// checkResult checks a result by its behaviour only: at most K patterns
// and at least one, each connected with diameter ≤ Dmax and at least σ
// distinct embeddings that occur in the host, no two isomorphic.
func checkResult(host *graph.Graph, opts mine.Options, res *mine.Result) error {
	if res.Truncated != mine.TruncatedNone {
		return fmt.Errorf("result truncated (%s)", res.Truncated)
	}
	if len(res.Patterns) == 0 || len(res.Patterns) > opts.K {
		return fmt.Errorf("%d patterns, want 1..%d", len(res.Patterns), opts.K)
	}
	codes := make(map[string]int, len(res.Patterns))
	for i, p := range res.Patterns {
		if !p.G.IsConnected() || !p.G.DiameterAtMost(opts.Dmax) {
			return fmt.Errorf("pattern %d: disconnected or diameter above %d", i, opts.Dmax)
		}
		n, err := distinctEmbeddings(host, p)
		if err != nil {
			return fmt.Errorf("pattern %d: %w", i, err)
		}
		if n < opts.MinSupport {
			return fmt.Errorf("pattern %d: %d distinct embeddings, below σ=%d", i, n, opts.MinSupport)
		}
		code := canon.CanonicalCode(p.G)
		if j, dup := codes[code]; dup {
			return fmt.Errorf("patterns %d and %d are isomorphic", j, i)
		}
		codes[code] = i
	}
	return nil
}

// distinctEmbeddings verifies that every embedding maps the pattern
// injectively onto host vertices with the same labels and host edges for
// all pattern edges, and counts the distinct host subgraphs they cover.
func distinctEmbeddings(host *graph.Graph, p *mine.Pattern) (int, error) {
	edges := p.G.Edges()
	images := make(map[string]struct{}, len(p.Emb))
	var sorted []graph.V
	for k, e := range p.Emb {
		if len(e) != p.G.N() {
			return 0, fmt.Errorf("embedding %d maps %d of %d vertices", k, len(e), p.G.N())
		}
		for v, hv := range e {
			if hv < 0 || int(hv) >= host.N() || host.Label(hv) != p.G.Label(graph.V(v)) {
				return 0, fmt.Errorf("embedding %d: vertex %d maps to a host vertex that does not match", k, v)
			}
		}
		sorted = append(sorted[:0], e...)
		slices.Sort(sorted)
		if len(slices.Compact(sorted)) != len(e) {
			return 0, fmt.Errorf("embedding %d is not injective", k)
		}
		for _, pe := range edges {
			if !host.HasEdge(e[pe.U], e[pe.W]) {
				return 0, fmt.Errorf("embedding %d: pattern edge %v is not a host edge", k, pe)
			}
		}
		images[canon.ImageKey(p.G, canon.Mapping(e))] = struct{}{}
	}
	return len(images), nil
}

// resultBytes is a result's SPR1 encoding without its timings and
// without the work counters that may differ between worker counts, so
// equal bytes mean equal patterns, embeddings and deterministic counts.
func resultBytes(res *mine.Result) ([]byte, error) {
	cp := *res
	cp.Stats = mine.Stats{
		Spiders: res.Stats.Spiders, SeedDraws: res.Stats.SeedDraws,
		GrowIterations: res.Stats.GrowIterations, Merges: res.Stats.Merges,
	}
	return mine.EncodeResult(&cp)
}

// spanNames are the per-layer names of a mine's wall-clock split, in
// spans order.
var spanNames = [...]string{
	"spidermine.spiders_ms", "spidermine.seeds_ms", "spidermine.growth_ms",
	"spidermine.recovery_ms", "spidermine.select_ms", "mine.facade_ms",
}

// spans splits one mine's wall-clock (ms): each progress event closes its
// stage's span since the previous event, "done" closes selection, and
// the façade is the rest of the call.
type spans [len(spanNames)]float64

func spansOf(events []mine.ProgressEvent, wall time.Duration) (spans, error) {
	var s spans
	var prev time.Duration
	for _, ev := range events {
		i := slices.Index([]string{spidermine.StageSpiders, spidermine.StageSeeds, spidermine.StageGrowth, spidermine.StageRecovery, spidermine.StageDone}, ev.Stage)
		if i < 0 {
			return s, fmt.Errorf("unexpected progress stage %q", ev.Stage)
		}
		s[i] += ms(ev.Elapsed - prev)
		prev = ev.Elapsed
		if ev.Stage == spidermine.StageDone {
			s[5] = ms(wall - ev.Elapsed)
			return s, nil
		}
	}
	return s, fmt.Errorf("no %q event among %d", spidermine.StageDone, len(events))
}

// spanSet collects the spans of many mines and their wall-clocks (ms).
type spanSet struct {
	per  [len(spanNames)][]float64
	wall []float64
}

func (s *spanSet) add(sp spans, wallMS float64) {
	for i, v := range sp {
		s.per[i] = append(s.per[i], v)
	}
	s.wall = append(s.wall, wallMS)
}

// reportSpans reports each span's median per mine and checks that the
// spans' means add up to the mean wall-clock they split.
func (b *bench) reportSpans(s *spanSet) {
	var sum float64
	for i, name := range spanNames {
		b.reportDist(name, "ms", s.per[i])
		sum += mean(s.per[i])
	}
	if err := withinTenPercent("spidermine spans", sum, mean(s.wall)); err != nil {
		b.problem(err)
	}
}

// counts are mine.Stats work counters summed over a fixed set of mines,
// so they repeat exactly between runs of the same seed.
type counts struct {
	spiders, seedDraws, growIters, merges    int64
	isoRun, isoSkipped, canonRun, canonNodes int64
}

func (c *counts) add(st mine.Stats) {
	c.spiders += int64(st.Spiders)
	c.seedDraws += int64(st.SeedDraws)
	c.growIters += int64(st.GrowIterations)
	c.merges += int64(st.Merges)
	c.isoRun += st.IsoRun
	c.isoSkipped += st.IsoSkipped
	c.canonRun += st.CanonRun
	c.canonNodes += st.CanonNodes
}

func (b *bench) reportCounts(c counts) {
	for _, m := range []struct {
		name string
		v    int64
	}{
		{"spidermine.spiders", c.spiders}, {"spidermine.seed_draws", c.seedDraws},
		{"spidermine.grow_iterations", c.growIters}, {"spidermine.merges", c.merges},
		{"canon.iso_run", c.isoRun}, {"canon.iso_skipped", c.isoSkipped},
		{"canon.canon_run", c.canonRun}, {"canon.canon_nodes", c.canonNodes},
	} {
		b.report(m.name, "count", float64(m.v), nil)
	}
	b.report("spidermine.merge_yield", "ratio", ratio(c.merges, c.isoRun), nil)
	b.report("canon.nodes_per_canon", "ratio", ratio(c.canonNodes, c.canonRun), nil)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// traceGID1 is gid1-sweep's traced run: every seed is mined untraced and
// then traced, trial after trial while another fits in the measured time,
// and the public layers are replayed on the host and the first seed's
// patterns. Counts and the digest cover the first trial.
func (b *bench) traceGID1(host *graph.Graph, seeds []int64) error {
	var (
		set              spanSet
		c                counts
		first            [][]byte
		untraced, allocs []float64
		pats             []*mine.Pattern
	)
	start := time.Now()
	for trial := 0; ; trial++ {
		t0 := time.Now()
		for j, seed := range seeds {
			u, err := mineOnce(host, gid1Opts, seed, false)
			b.op(err)
			untraced = append(untraced, latencyOf(u.wall, err))
			t, err := mineOnce(host, gid1Opts, seed, true)
			if err == nil {
				err = b.checkTrial(trial, j, host, gid1Opts, t.res, &first)
			}
			var sp spans
			if err == nil {
				sp, err = spansOf(t.events, t.wall)
			}
			b.op(err)
			if err != nil {
				continue
			}
			set.add(sp, ms(t.wall))
			allocs = append(allocs, float64(t.alloc)/(1<<20))
			if trial == 0 {
				c.add(t.res.Stats)
				if j == 0 {
					pats = t.res.Patterns
				}
			}
		}
		if time.Since(start)+time.Since(t0) > b.seconds {
			break
		}
	}
	b.reportSpans(&set)
	b.reportCounts(c)
	b.reportDist("mine.alloc_mib_per_mine", "MiB", allocs)
	b.report("trace.overhead", "ratio", percentile(set.wall, 500)/percentile(untraced, 500)-1, nil)
	b.digest = digestOf(first)
	return b.replayLayers(host, gid1Opts, pats)
}

// traceBA5k is ba5k-par's traced run. Each seed is mined at 2 workers
// untraced and traced, then at 1 worker: the sequential pass gives the
// parallel engine's speedup and speculation (iso tests at 2 workers over
// those at 1) and must produce the same results.
func (b *bench) traceBA5k(host *graph.Graph, seeds []int64) error {
	var (
		set                      spanSet
		c                        counts
		par, seq                 [][]byte
		isoSeq                   int64
		untraced, serial, allocs []float64
		pats                     []*mine.Pattern
	)
	seqOpts := ba5kOpts
	seqOpts.Workers = 1
	for _, seed := range seeds {
		u, err := mineOnce(host, ba5kOpts, seed, false)
		b.op(err)
		untraced = append(untraced, latencyOf(u.wall, err))

		t, err := mineOnce(host, ba5kOpts, seed, true)
		var sp spans
		if err == nil {
			err = checkResult(host, ba5kOpts, t.res)
		}
		if err == nil {
			sp, err = spansOf(t.events, t.wall)
		}
		b.op(err)
		if err == nil {
			set.add(sp, ms(t.wall))
			allocs = append(allocs, float64(t.alloc)/(1<<20))
			c.add(t.res.Stats)
			raw, rerr := resultBytes(t.res)
			b.op(rerr)
			par = append(par, raw)
			pats = t.res.Patterns
		}

		s, err := mineOnce(host, seqOpts, seed, false)
		b.op(err)
		serial = append(serial, latencyOf(s.wall, err))
		if err == nil {
			isoSeq += s.res.Stats.IsoRun
			raw, rerr := resultBytes(s.res)
			b.op(rerr)
			seq = append(seq, raw)
		}
	}
	b.digest = digestOf(par)
	if string(b.digest) != string(digestOf(seq)) {
		b.problem(fmt.Errorf("results at 2 workers differ from those at 1 worker"))
	}
	b.reportSpans(&set)
	b.reportCounts(c)
	b.reportDist("mine.alloc_mib_per_mine", "MiB", allocs)
	b.report("par.iso_speculation", "ratio", ratio(c.isoRun, isoSeq), nil)
	b.report("par.speedup", "ratio", percentile(serial, 500)/percentile(untraced, 500), nil)
	b.report("trace.overhead", "ratio", percentile(set.wall, 500)/percentile(untraced, 500)-1, nil)
	return b.replayLayers(host, ba5kOpts, pats)
}

// matchMaxVertices bounds the patterns the matcher replay re-finds in the
// host. Unanchored search for a pattern of a thousand vertices (BA-5k's
// top patterns) runs for minutes; the miner only ever matches small ones.
const matchMaxVertices = 100

// replayLayers times single public calls of the mining layers on the
// workload's own host and patterns: a warm Stage I (spider.StarMiner),
// the matcher (limit 1024) and the canonizer.
func (b *bench) replayLayers(host *graph.Graph, opts mine.Options, pats []*mine.Pattern) error {
	var sm spider.StarMiner
	so := spider.Options{MinSupport: opts.MinSupport, MaxLeaves: opts.MaxLeavesPerStar, Radius: 1, MaxSpiders: opts.MaxSpiders, Workers: opts.Workers}
	var err error
	stage1 := func() {
		if _, e := sm.Mine(context.Background(), host, so); e != nil {
			err = e
		}
	}
	stage1()
	b.reportDist("spider.stage1_warm_ms", "ms", timeReps(5, 300*time.Millisecond, stage1))
	if err != nil {
		return fmt.Errorf("stage I replay: %w", err)
	}

	mt := canon.NewMatcher()
	cz := canon.NewCanonizer()
	mo := canon.MatchOptions{Limit: 1024, Anchor: -1, DistinctImages: true}
	keep := func(canon.Mapping) bool { return true }
	var match, code []float64
	for _, p := range pats {
		if p.G.N() <= matchMaxVertices {
			mt.Enumerate(p.G, host, mo, keep)
			for _, d := range timeReps(3, 20*time.Millisecond, func() { mt.Enumerate(p.G, host, mo, keep) }) {
				match = append(match, d*1000)
			}
		}
		cz.Code(p.G)
		for _, d := range timeReps(3, 5*time.Millisecond, func() { cz.Code(p.G) }) {
			code = append(code, d*1000)
		}
	}
	b.reportDist("canon.match_us", "us", match)
	b.reportDist("canon.canonize_us", "us", code)
	return nil
}

// Package spidermine implements the SpiderMine algorithm (Algorithm 1 of
// the paper): probabilistic mining of the top-K largest frequent patterns
// of a single massive network, with diameter bound Dmax and success
// probability 1−ε.
//
// The three stages:
//
//	Stage I   — mine all frequent r-spiders (internal/spider).
//	Stage II  — draw M random seed spiders (M from Lemma 2), grow each by
//	            SpiderGrow for ⌈Dmax/2r⌉ iterations, merging patterns whose
//	            embeddings start to overlap, or until an iteration grows
//	            nothing and merges nothing; prune everything unmerged.
//	Stage III — grow survivors to maximality; return the K largest.
//
// # Performance notes: pooled mining state
//
// The Miner owns every table and scratch buffer the pipeline needs and
// reuses them across iterations, restarts, and (via Reset) runs on new
// hosts. The per-iteration engines allocate only for retained output —
// the patterns, graphs, and embedding lists that outlive the iteration —
// never for intermediate state. The pooled structures and their
// invariants:
//
//   - Frequent-pair index (freqPairs): the Stage I single-leaf stars as a
//     flat (head, leaf) list sorted by cmpLabelPair, replacing the
//     historical per-run map[[2]Label]bool. Lookups are binary searches
//     (freqLeavesOf returns the contiguous run for a head; leafIndex
//     searches within it). Rebuilt in place at the start of every run;
//     read-only — and therefore safely shared across workers — once
//     mining starts.
//   - Stage I tables: the spider.StarMiner is held by value and owns its
//     CSR neighbor-rank table, its per-rank tallies, and the flat star
//     table it returns (spider.Stars: one int32 record per star and all
//     host lists in one array, no pointers), into which it writes each
//     star once, on the coordinator; the table is rebuilt in place by the
//     next run. The Miner keeps the table as is (level by level, each level in
//     head-then-leaves order); the seed draw indexes it directly, so that
//     order is part of every result, and the frequent-pair index reads its
//     first level.
//   - Per-worker scratch arenas (par.Workspace): one growScratch /
//     mergeScratch / canon.Matcher per worker, allocated per-worker-once
//     and reused across passes, runs, and restarts. Scratch contents are
//     epoch-stamped (mark arrays) or length-reset; nothing in a scratch
//     may be referenced by retained output — anything that survives the
//     call is copied out (e.g. merge winners copy their embedding lists
//     out of the pooled buckets).
//   - Grow scratch (growScratch, one per worker): the greedy leaf tally is
//     two []int32 indexed by a label's position in the head's
//     frequent-leaf run (freqLeavesOf; leafIndex finds it by the binary
//     search that tests membership), never by label value, and ties go to
//     the lowest position, which is the smallest label. The eccentricity
//     guard keeps per-vertex lower bounds (eccLB) scoped to one
//     growPattern pass: zeroed when the pass starts, raised by every guard
//     BFS, and dropped when it ends. Within a pass extensions only append
//     leaves, so eccentricities only grow and a bound that reaches Dmax
//     rejects without a BFS; bounds never accept, and never outlive the
//     pass, because a merge may replace the graph before the next one.
//     Extended images are deduped by the set hash canon.ImageHash, so no
//     image is sorted.
//   - Merge round state (Miner-owned, grown once): the candidate scan
//     builds its usage index as a CSR over the touched host vertices (a
//     count pass and a fill pass; a host-sized sparse set maps a vertex to
//     its touched position and is never cleared), then pairs each scanned
//     embedding with the later ones of other patterns at its vertices,
//     deduping by a per-embedding stamp. No map is consulted, and a pair
//     that mergePairCap cuts keeps its first candidates in discovery order
//     (touched-vertex order, then slot order), recomputed only for cut
//     pairs. Every parent image a round's groups name is prepared at most
//     once per round, on first use, into one arena sized from the
//     candidates before the waves; no image outlives its round, since a
//     pattern may grow before the next. A wave's groups share no pattern,
//     so a worker writes only its own group's two patterns' images,
//     unlocked. A group whose ordered pattern-ID pair failed in the
//     previous round of the restart, whose patterns are both done, and
//     whose candidates the cap did not cut is resolved as failed without
//     evaluation (Stats.MergeSkipped); the failures live in two reused
//     sorted slices. A warm round's scan and image preparation allocate
//     nothing (TestMergeRoundWarmNoAlloc).
//   - Merge scratch (mergeScratch, one per worker): building a candidate
//     union sorts nothing. It reads the parents' prepared images from the
//     round's arena, pa's per run of equal ea (a group's candidates are
//     sorted by (ea, eb)); a union is then two linear merges
//     (graph.AppendMergedEdges, graph.AppendMergedVerts); the union
//     subgraph is rebuilt in place in a graph.SubgraphScratch, whose
//     host-sized table renumbers the given endpoints in O(1) and whose CSR
//     fill is the one Builder.Build uses; a single DiameterAtMost pass in
//     the worker's own graph.BFS checks connectivity and Dmax together;
//     and the union is WL-refined once (canon.Iso.Invariant, sort-free),
//     its colors reused for every bucket comparison (canon.Iso.MapColored).
//     A bucket keeps the colors of the union that founded it, so its
//     representative is never refined again, and a union is cloned only
//     when it founds a bucket. A warm tryMerge whose unions all repeat or
//     fail Dmax allocates nothing (TestMergeScratchWarmNoAlloc), under
//     -race as well: warm growth and merge never borrow from a sync.Pool.
//   - Worker-indexed accumulators (par.Slots): progress flags and iso-run
//     counters, zero-filled on For and reduced after each join, plus the
//     merge waves' per-pattern consumed flags and wave stamps. Growth and
//     merging run on par.Do at every worker count (inline at one worker);
//     a merge wave holds only groups whose fate is decided, its results
//     sit in slots indexed by wave position, and accepted merges are
//     numbered in key order once the round ends (mergeWaves), so results
//     and every work counter are the same for any worker count.
//   - Retained embeddings are carved from exact-capacity flat backing
//     ([]graph.V sized before the append loop), so growing one pattern's
//     embedding list can never reallocate under a neighbor's sub-slice.
//
// The allocation budgets are pinned by TestStageIAllocBudget and
// TestFullPipelineAllocBudget (repo root), the warm 0-alloc contracts by
// TestStarMinerWarmNoAlloc (internal/spider), TestGrowScratchWarm*,
// TestMergeScratchWarmNoAlloc and TestMergeRoundWarmNoAlloc (this
// package), and the cross-run reuse
// contract by TestMinerResetReuse
// and TestStarMinerWarmAcrossHosts. The measured baseline is the
// repository benchmark, `bash bench/run.sh` (see bench/README.md).
package spidermine

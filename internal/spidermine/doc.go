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
//	            embeddings start to overlap; prune everything unmerged.
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
//     CSR neighbor-rank table, level frontiers, and output arenas; its
//     stars are carved from those arenas and are invalidated by the next
//     run, so the Miner rebuilds its spider.Catalog (also pooled, also
//     flat) from each run's output before touching the next.
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
//   - Merge scratch (mergeScratch, one per worker): building a candidate
//     union sorts nothing. Each parent image is prepared once per distinct
//     embedding per tryMerge call — its edges sorted and its endpoints
//     sorted — pa's per run of equal ea (a group's candidates are sorted
//     by (ea, eb)) and pb's kept for the whole call behind a per-embedding
//     index that is cleared on entry, not a map. A union is then two
//     linear merges (graph.AppendMergedEdges, graph.AppendMergedVerts);
//     the union subgraph is rebuilt in place in a graph.SubgraphScratch,
//     whose host-sized table renumbers the given endpoints in O(1) and
//     whose CSR fill is the one Builder.Build uses; a single
//     DiameterAtMost pass in the worker's own graph.BFS checks
//     connectivity and Dmax together; and the union is WL-refined once
//     (canon.Iso.Invariant, sort-free), its colors reused for every
//     bucket comparison (canon.Iso.MapColored). A bucket keeps the colors
//     of the union that founded it, so its representative is never
//     refined again, and a union is cloned only when it founds a bucket.
//     A warm tryMerge whose unions all repeat or fail Dmax allocates
//     nothing (TestMergeScratchWarmNoAlloc), under -race as well: warm
//     growth and merge never borrow from a sync.Pool.
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
// TestStarMinerWarmNoAlloc (internal/spider), TestGrowScratchWarm* and
// TestMergeScratchWarmNoAlloc (this package), and the cross-run reuse
// contract by TestMinerResetReuse
// and TestStarMinerWarmAcrossHosts. The measured baseline is the
// repository benchmark, `bash bench/run.sh` (see bench/README.md).
package spidermine

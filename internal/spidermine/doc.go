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
//     (freqLeavesOf returns the contiguous run for a head; hasLeaf
//     searches within it). Rebuilt in place at the start of every run;
//     read-only — and therefore safely shared across workers — once
//     mining starts.
//   - Stage I tables: the spider.StarMiner is held by value and owns its
//     CSR neighbor-label table, level frontiers, and output arenas; its
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
//   - Worker-indexed accumulators (par.Slots): progress flags, iso-run
//     counters, and item-indexed merge results, zero-filled on For and
//     reduced in item order after each join, preserving the PR 2
//     determinism contract (bit-identical results for any worker count).
//   - Retained embeddings are carved from exact-capacity flat backing
//     ([]graph.V sized before the append loop), so growing one pattern's
//     embedding list can never reallocate under a neighbor's sub-slice.
//
// The allocation budgets are pinned by TestStageIAllocBudget and
// TestFullPipelineAllocBudget (repo root), the warm 0-alloc contracts by
// TestStarMinerWarmNoAlloc (internal/spider), TestGrowScratchWarm* and
// TestMergeScratchWarmNoAlloc (this package), and the cross-run reuse
// contract by TestMinerResetReuse
// and TestStarMinerWarmAcrossHosts. BENCH_PR8.json records the measured
// steady state.
package spidermine

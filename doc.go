// Package repro is a from-scratch Go reproduction of "Mining Top-K Large
// Structural Patterns in a Massive Network" (Zhu, Qu, Lo, Yan, Han, Yu;
// PVLDB 4(11), 2011) — the SpiderMine algorithm, every baseline it is
// evaluated against (SUBDUE, SEuS, MoSS/gSpan-style complete mining,
// ORIGAMI, plus a GREW-style extension), the synthetic workload
// generators of the evaluation, and a harness that regenerates every
// table and figure.
//
// Start with README.md for the layout, DESIGN.md for the system inventory
// and per-experiment index, and EXPERIMENTS.md for paper-vs-measured
// results. The root package contains only the benchmark harness
// (bench_test.go); the implementation lives under internal/, and the
// public surface is the mine package.
//
// # API layer: the mine façade
//
// Package mine is the single public entry point: a string-keyed registry
// of engines behind one interface,
//
//	Mine(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error)
//
// Six miners register at init — "spidermine" and the five baselines —
// and each serves both host settings (a single massive network, or a
// graph-transaction database mined via its disjoint union). Options
// carries the support threshold, top-K semantics, worker count, and three
// budgets (MaxPatterns, MaxWallClock, MaxEmbeddings); Result carries
// patterns, uniform Stats, and a Truncation reason. Budget exhaustion is
// a truncated Result, not an error; caller-context cancellation is an
// error plus deterministic committed partials. Both CLIs (cmd/spidermine
// -miner/-timeout, cmd/spiderbench -timeout), all examples/*, and the
// experiment suite's cross-miner comparison ("miners") go through this
// façade; new serving surfaces must too.
//
// # Serving layer
//
// internal/serve (daemon: cmd/spiderserved) is the first serving
// subsystem over the façade: an HTTP/JSON mining service comprising a
// graph store (upload hosts in LG format; content-addressed by a stable
// 128-bit fingerprint, so identical uploads deduplicate), a bounded FIFO
// job scheduler (N concurrent runners, each job's context a child of the
// scheduler's, so DELETE /jobs/{id} cancels into the façade's
// deterministic committed partials and SIGTERM drains gracefully), an
// LRU result cache keyed by (host fingerprint, miner name, fingerprint
// of mine.Options.Canonical) making repeated queries O(1), and NDJSON
// progress streaming backed by Options.OnProgress. The HTTP surface
// preserves the truncation-vs-error contract: budget-stopped runs finish
// "done" with a truncation reason; cancelled runs finish "canceled" with
// an error *and* their partial result still retrievable. See the
// internal/serve package comment for the endpoint reference and
// README.md for the job lifecycle.
//
// # Persistence
//
// internal/store is the durable storage engine under the serving layer:
// store.Disk, content-addressed blob namespaces plus a small fsynced
// record journal in a pure-Go append-only segment log of CRC-framed
// records, with a sidecar index for O(1) clean reopen and a recovery
// scan that truncates torn tails (a crashed write never poisons the
// log; it is cut at the last intact frame and overwritten by the next
// append). The durable tier is a *store.Disk or nothing: without one
// (the default) the server keeps graphs and results in its own maps
// and writes nowhere, byte-identical in behavior to the pre-durability
// server. Uploaded graphs
// persist through a versioned binary CSR codec
// (graph.AppendBinary/DecodeBinary — round-trips Builder.Build output
// exactly, so the content fingerprint re-verifies on load), cacheable
// mining results through mine.EncodeResult/DecodeResult, and terminal
// job records as JSON journal appends. cmd/spiderserved -data-dir turns
// it on: a restart recovers the graph store, the persistent result
// cache, and every journaled job (resuming the job-ID sequence) before
// the listener opens. A recovered job is an ordinary terminal job that
// serves its recorded snapshot, its result from the persistent cache
// or 410 Gone, and it counts against the same JobsCap retention bound
// as new jobs. Durable: registered graphs, deterministically
// cacheable results, terminal job records. Deliberately not durable:
// non-terminal jobs, progress event logs, and wall-clock-truncated or
// failed results — all recomputable or timing-dependent. Injected
// storage faults (failpoints store/disk/put, store/disk/get,
// store/disk/sync) surface as 503 backpressure on upload or silent
// cache degradation on reads — never a 404, never a dead daemon
// (persist_test.go asserts this through the HTTP surface).
//
// # Out-of-core
//
// internal/graph additionally defines SPC1, a versioned flat CSR image
// format (graph.WriteImage / graph.OpenMapped): a fixed 128-byte header
// with per-section CRC-32C descriptors, then 8-aligned sections holding
// the graph's label, offset, neighbor and sketch arrays exactly as the
// in-RAM representation lays them out. OpenMapped mmaps the file and
// aliases the Graph's slices onto the mapping — zero decode, O(1)
// allocations, page-cache-resident adjacency — so hosts beyond RAM mine
// with flat heap growth, byte-identically to their built twins at every
// worker count (TestMappedEqualsBuilt, TestOutOfCoreMillionEdge at the
// repo root are the enforcing gates; FuzzOpenImage holds the
// hostile-input never-panic line). Verification is two-tier: OpenMapped
// runs an allocation-free streaming validation of checksums, CSR
// monotonicity, neighbor order, adjacency symmetry and sketches;
// OpenMappedTrusted skips it (O(1)) for images already verified.
// Platforms without mmap fall back to a heap read transparently, and
// Clone always deep-copies a mapped graph onto the heap. The serving
// layer write-throughs an SPC1 image for hosts past
// serve.DefaultImageEdgeThreshold into the disk's file tier
// (store.Disk.PutFile, one file per graph) and recovery remaps it
// — fingerprint-re-verified, falling back to SPG1 decode and rebuilding
// the image if it is missing or corrupt. The mine façade re-exports the
// open functions (mine.OpenMapped); cmd/gengraph -format spc1 writes
// images, and cmd/spidermine / cmd/spiderbench take -mmap.
//
// # Failure semantics
//
// The serving layer degrades, never corrupts (README §Failure semantics
// has the operator view). Four mechanisms, each independently tested and
// all exercised together by the chaos suite
// (internal/serve/chaos_test.go):
//
//   - Panic containment: a panicking miner is recovered at the job
//     boundary (and a second, last-resort recover guards the runner
//     itself), converted to a *serve.PanicError carrying the panic value
//     and goroutine stack, and the job fails while the daemon keeps
//     serving. No job is ever left non-terminal.
//   - Retry classification: transient-classed failures (mine.IsTransient:
//     wraps mine.ErrTransient or exposes Transient() bool; context errors
//     and panics are always permanent) re-run up to a bounded retry
//     budget with exponential full-jitter backoff. A retry re-runs the
//     miner from scratch with the same Options — under the determinism
//     contract it is a fresh equivalent computation, never a resume — so
//     the parallel- and cancel-determinism invariants are unaffected.
//   - Backpressure: full queues, draining, and injected infrastructure
//     faults all answer 503 with a Retry-After header and a structured
//     JSON body; /healthz (liveness) and /readyz (readiness, flips at
//     the queue high-water mark) split the health surface so restarts
//     and traffic-shedding key on different signals.
//   - Failpoints: internal/fault provides registry-driven named
//     injection sites (error / transient error / panic / delay, one-in-N
//     cadence, trip limits) compiled into the store, scheduler, miner
//     and cache boundaries. Disarmed sites cost one atomic pointer load
//     and zero allocations — the matcher/canonizer hot paths stay
//     0 allocs/op — and arming needs no rebuild (test API or the
//     SPIDERSERVED_FAULTS env DSL).
//
// # Observability
//
// internal/obs is the zero-dependency metrics substrate: named counters,
// gauges, and fixed-bucket histograms (p50/p95/p99 estimated from bucket
// counts by linear interpolation) registered in a per-Server Registry.
// Record sites follow internal/fault's discipline — a handful of atomic
// operations and zero allocations on the hot path, enforced by an alloc
// test — and all reads (Prometheus exposition, JSON snapshots,
// quantiles) are lock-free over the same atomics, so scraping never
// stalls recording. Component-owned counters (cache hits, store reads,
// scheduler retry/panic totals) surface through scrape-time
// CounterFunc/GaugeFunc reads, so each component stays the single source
// of truth and /stats and /metrics can never drift apart; event-time
// metrics (queue-wait, per-miner run latency, per-stage mining
// wall-clock from mine.Stats.Stages, rejections by cause) record where
// the event happens through nil-safe helpers. The serving surface
// exposes GET /metrics (Prometheus text exposition 0.0.4), folds the
// same snapshot into GET /stats, and cmd/spiderserved offers opt-in
// net/http/pprof behind -debug-addr. The baseline to measure against is
// the repository benchmark (bash bench/run.sh), whose serve-mixed
// workload replays mixed traffic (uploads, fresh/repeat submits,
// cancels, event streamers) at the rates of SLO_PR7.json, kept as the
// historical run of cmd/spiderload, a load generator since removed.
//
// # Cancellation architecture
//
// context.Context threads from the façade through every mining layer down
// to the worker-pool substrate (internal/par), under two invariants:
//
//   - Zero cost when uncancellable: every check is gated on
//     ctx.Done() != nil, so a Background run executes the exact
//     pre-context code path — byte-identical results, no hot-path cost
//     (the matcher stays 0 allocs/op; sequential stage benchmarks are
//     unchanged). Checks stay cheap: internal/par makes one non-blocking
//     receive before every item claim, inline and on every worker, and
//     Stage I one before every frontier star, so the mining stages see a
//     cancel at the next star, seed, pattern, merge group or iteration.
//   - Deterministic partials when cancelled: SpiderMine commits its
//     reduced working set at every grow+merge and recovery iteration
//     boundary (shallow pattern snapshots, taken only when the context is
//     cancellable); an iteration aborted mid-flight rolls back wholesale,
//     and the run returns ctx.Err() plus the committed patterns (σ- and
//     Dmax-filtered, size-ordered, and — since the automorphism-pruned
//     Canonizer made identity checks cheap even on unpruned hub patterns
//     — structurally deduped like a completed run's). Cancellation
//     observed at a given boundary therefore
//     yields byte-identical partial results; progress callbacks run
//     synchronously between parallel sections, so a callback-pinned
//     cancel is deterministic end to end (TestCancelDeterministic,
//     TestFacadeCancelDeterministic). Baselines return their loop-boundary
//     partials the same way.
//
// Every engine has one entry point, and it takes a ctx. The ctx also
// threads through the experiment drivers (internal/experiments), which
// take it and the worker count as arguments and hold no run state, so
// runs in flight at once keep their own deadlines. A run its ctx cut
// returns the partial report together with ctx.Err(): spiderbench prints
// the table as partial and never checks a paper claim against it.
//
// # Performance architecture
//
// The hot path of every stage bottoms out in the graph substrate and the
// subgraph matcher, which are engineered as an indexed, allocation-free
// embedding engine:
//
//   - internal/graph stores adjacency in CSR form — one flat []V neighbor
//     array, per-vertex sorted, indexed by an []int32 offsets table — so
//     neighbor scans are contiguous and HasEdge is a branch-light binary
//     search. Builder.Build sorts and dedupes the edge list in a single
//     pass and fills the CSR in two sweeps that leave each range sorted
//     without per-vertex sorting.
//   - Build also precomputes a per-vertex neighbor-label frequency sketch
//     (16 four-bit saturating counters in one uint64; see
//     graph.SketchDominates) and, lazily on first use, a label index
//     grouping vertex ids by label (graph.VerticesWithLabel).
//   - internal/canon's Matcher keeps all search state — partial mapping,
//     used-host bitset, match order, distinct-image hash table, key
//     buffers — in a reusable struct, so a warm matcher enumerates
//     embeddings with zero heap allocation. Root candidates come from the
//     label index (the root is the pattern vertex with the rarest host
//     label, ties toward higher degree), and every candidate is filtered
//     by label, degree and sketch domination before exact adjacency
//     checks. EnumerateEmbeddingsReference retains the naive matcher as
//     the correctness oracle; differential tests assert identical
//     distinct-image sets.
//   - Growth and merging (internal/spidermine) reuse per-worker scratch:
//     epoch-stamped host marks instead of per-embedding maps; parent
//     images sorted once per distinct embedding and merged linearly, so
//     building a candidate union sorts nothing; hash-deduped union
//     subgraphs rebuilt in place (graph.SubgraphScratch); early-exit
//     diameter checks that also reject disconnected unions
//     (graph.BFS.DiameterAtMost); one sort-free word-level WL refinement
//     per union whose colors also drive its isomorphism tests
//     (canon.Iso.MapColored); and per-worker BFS scratch (graph.BFS) for
//     all boundary, eccentricity and diameter work, so warm mining never
//     borrows from a sync.Pool.
//   - Stage I, growth and selection sort nothing per item. spider.StarMiner
//     indexes by label rank (a label's index among the host's sorted
//     distinct labels), never by label value, and extends a star with one
//     walk over each host's sorted ranks, bucketing hosts by rank. Growth
//     tallies leaf labels by their position in the head's frequent-leaf
//     run; its eccentricity guard skips the BFS wherever a lower bound
//     from an earlier BFS of the same pass already reaches Dmax
//     (graph.BFS.EccentricityRaising; the bounds live for one pass only,
//     since merges replace pattern graphs between passes); and it dedupes
//     images by canon.ImageHash, an order-independent set hash, so growth
//     never sorts an image. Selection and experiments.ExactTopK filter by
//     the threshold test DiameterAtMost, which agrees with Diameter() on
//     the connected patterns that reach them.
//   - Stage I's output is one flat table without pointers (spider.Stars):
//     a fixed-size int32 record per star (head rank, parent index,
//     last-leaf rank and run, leaf count, host-list end) and all host
//     lists in one array, in the order the seed draw indexes. A star's
//     leaves are the last leaves along its parent chain, so the garbage
//     collector has nothing in the table to scan. Stage I runs on one
//     goroutine and writes each star straight into the table, so no star
//     is copied; level 1's triples are ordered by two counting passes, not
//     a comparison sort. Each level's frontier is expanded one star at a
//     time, and with MaxSpiders set the star that fills the table is cut
//     there: at most one star's extensions are built beyond the cap.
//   - Stage I depends only on the host and σ and the two Stage I caps, so
//     a mine reuses the table of an earlier mine of the same host object
//     under equal Stage I options while that table is still alive
//     (spider.MineStarsShared): repeated façade mines of one host, such as
//     the seed sweeps of the benchmark or jobs on one stored graph, skip
//     Stage I. Built graphs are immutable, so the host pointer is the key.
//     The table map holds hosts and tables weakly and retains nothing: a
//     table no mine holds is reclaimed by the next GC, and the next mine
//     runs Stage I cold. A table cut by its context is never recorded, and
//     a shared table is byte-identical to a cold one, so every result is
//     too.
//
// # Pattern identity
//
// Deciding whether two patterns are the same structure — the paper's
// §4.2.2 economy — is tiered so the cheap necessary conditions absorb
// almost every comparison: a 64-bit Weisfeiler–Leman invariant hash, then
// the spider-set signature (Theorem 2: the multiset of canonical rooted
// r-neighborhood codes, hashed), and only for signature-equal pairs an
// exact check. The exact tier, and every rooted spider code beneath the
// signatures, bottoms out in canon.Canonizer: a reusable, scratch-owning
// individualization–refinement search with counting-sort equitable
// refinement, node-invariant (trace) pruning, and automorphism/orbit
// pruning with backjumping — so the hub-with-k-interchangeable-legs
// shapes SpiderMine mass-produces canonicalize in O(k²) search nodes
// (microseconds) where a naive search explores ~k! leaf orderings. Exact
// identity is a comparison of per-pattern cached canonical codes, so a
// pattern canonicalizes at most once however many pairs it appears in,
// and a warm Canonizer runs allocation-free. This is why cancelled runs
// now afford the same structural dedupe as completed ones, and
// mine.Stats.CanonRun/CanonNodes quantify the search effort.
//
// # Concurrency architecture
//
// Config.Workers shards growth and merge rounds (Stages II and III) over
// the deterministic worker-pool substrate in internal/par; Stage I and
// the seed draw run on the coordinating goroutine, since sharding them
// did not pay on the cores they were measured on. The sharded stages keep
// three invariants that every future parallel change must preserve
// (TestParallelEqualsSequential in internal/spidermine is the enforcing
// harness):
//
//   - Shared-immutable: the host graph (whose label index builds lazily
//     behind a sync.Once, so first use may happen on any worker), the
//     frequent-pair table, Stage I's star table, and the run Config are
//     only read by workers. The star table is also read by every
//     concurrent mine of the same host that shares it
//     (spider.MineStarsShared), so nothing writes to it once Stage I
//     returns. Randomness is drawn on the coordinating goroutine
//     before any fan-out — workers never touch the rng (and rng streams
//     are consumed in full before any cancellable section, so a cancelled
//     run leaves the stream where an uncancelled one would).
//   - Per-worker scratch: each worker owns its grow and merge scratch
//     (BFS state included) and accumulator slot; package sync.Pools (BFS
//     buffers, pooled matchers) remain as race-free backstops for code off
//     the sharded paths. Scratch contents may affect allocation behavior,
//     never results.
//   - Ordered reduction: parallel stages write results into item-indexed
//     slots and all cross-worker combination — accepting Stage II merges,
//     assigning pattern IDs — happens afterwards in item order
//     (pattern/vertex id order), never completion order and never
//     map-iteration order. One code path serves every worker count:
//     growth and merge rounds run on par.Do, inline at one worker. A
//     merge round runs in waves, each holding only pattern-pair groups
//     whose fate the key-order walk of Algorithm 4 has already decided,
//     so it evaluates exactly the walk's groups, none speculatively;
//     accepted merges are numbered in key order once the round ends.
//
// Consequence: for a fixed Config (including Seed), the Result and every
// Stats work counter are identical for every Workers setting; only
// wall-clock varies.
package repro

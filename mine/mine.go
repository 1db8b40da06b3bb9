// Package mine is the public façade of the SpiderMine reproduction: one
// uniform, context-aware API over every miner the repository implements —
// SpiderMine itself plus the five baselines it is evaluated against
// (GREW, MoSS, ORIGAMI, SEuS, SUBDUE) — in both the single-graph and the
// graph-transaction setting.
//
// The shape of the API:
//
//	m, err := mine.Get("spidermine")
//	res, err := m.Mine(ctx, mine.SingleGraph(g), mine.Options{
//		MinSupport: 2, K: 10, Dmax: 6,
//	})
//
// Miners are looked up by name in a string-keyed registry (Get, Names,
// Register); every miner accepts the same typed Options (support
// threshold, top-K, budgets, worker count, progress callback) and returns
// the same Result (patterns + Stats + a truncation reason). Budgets —
// MaxPatterns, MaxWallClock, MaxEmbeddings — bound a run's output size,
// wall-clock, and per-pattern memory; a run stopped by its own budget is
// *not* an error: it returns a truncated Result with Truncated set.
// Cancelling or deadlining the caller's ctx *is* an error: the run
// returns ctx.Err() together with the deterministic partial results the
// engine had committed (see the cancellation contract below).
//
// # Cancellation contract
//
// Cancellation is cooperative and flows through the deterministic
// worker-pool substrate (internal/par): every parallel fan-out and every
// long sequential loop observes ctx at item or iteration granularity, so
// runs return promptly after ctx fires. The invariants:
//
//   - An *uncancelled* run is byte-identical to a run without any context
//     plumbing: all checks are gated off the hot path when ctx cannot
//     fire, and Result contents never depend on timing.
//   - A *cancelled* run returns ctx.Err() plus the patterns of the last
//     committed reduction boundary (SpiderMine commits after every
//     grow+merge iteration; the baselines at their loop boundaries). An
//     iteration aborted mid-flight is rolled back wholesale, so the
//     partial result is a deterministic function of *which* boundary the
//     cancellation was observed at — a callback-pinned cancel (see
//     Options.OnProgress) yields byte-identical partial results across
//     runs at fixed workers.
//
// # Progress
//
// Options.OnProgress streams per-stage events (stage name, iteration,
// working-set size, merges, elapsed wall-clock) synchronously on the
// coordinating goroutine. Because delivery is synchronous and between
// parallel sections, a callback may cancel the run's context to stop it
// at exactly the boundary it just observed.
package mine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/support"
)

// Host names the data a miner runs against: exactly one of Graph (the
// single massive network setting, the paper's main object) or DB (the
// graph-transaction setting of §5.1.2) must be set.
type Host struct {
	Graph *Graph
	DB    *DB
}

// SingleGraph wraps a single host network.
func SingleGraph(g *Graph) Host { return Host{Graph: g} }

// Transactions wraps a graph-transaction database.
func Transactions(db *DB) Host { return Host{DB: db} }

// validate reports whether exactly one host field is set.
func (h Host) validate() error {
	switch {
	case h.Graph == nil && h.DB == nil:
		return fmt.Errorf("mine: empty host (set Graph or DB)")
	case h.Graph != nil && h.DB != nil:
		return fmt.Errorf("mine: ambiguous host (both Graph and DB set)")
	}
	return nil
}

// union returns the graph a single-graph miner should run on: the host
// graph itself, or the transaction database's disjoint union.
func (h Host) union() *Graph {
	if h.Graph != nil {
		return h.Graph
	}
	u, _ := h.DB.Union()
	return u
}

// Measure selects the support definition used in σ-comparisons.
type Measure string

const (
	// MeasureDefault lets each miner use its customary measure
	// (SpiderMine: all embeddings; MoSS: harmful overlap; SUBDUE/GREW
	// count vertex-disjoint instances by construction).
	MeasureDefault Measure = ""
	// MeasureAll counts distinct embedding subgraphs (Definition 2).
	MeasureAll Measure = "all"
	// MeasureDisjoint counts pairwise edge-disjoint embeddings.
	MeasureDisjoint Measure = "disjoint"
	// MeasureHarmful is the Fiedler–Borgelt harmful-overlap measure.
	MeasureHarmful Measure = "harmful"
)

// Valid reports whether the measure is one of the defined values; the
// error names the accepted ones. Serving surfaces use it to reject a
// request before scheduling work.
func (m Measure) Valid() error {
	_, err := m.internal(support.CountAll)
	return err
}

// internal maps a Measure to the internal support constant; def is the
// miner's customary measure for MeasureDefault.
func (m Measure) internal(def support.Measure) (support.Measure, error) {
	switch m {
	case MeasureDefault:
		return def, nil
	case MeasureAll:
		return support.CountAll, nil
	case MeasureDisjoint:
		return support.EdgeDisjoint, nil
	case MeasureHarmful:
		return support.HarmfulOverlap, nil
	}
	return 0, fmt.Errorf("mine: unknown measure %q (have %q, %q, %q)", m, MeasureAll, MeasureDisjoint, MeasureHarmful)
}

// Options is the uniform mining configuration. Zero values mean "the
// miner's sensible default"; knobs a miner has no use for are ignored
// (each adapter documents which).
type Options struct {
	// MinSupport is the support threshold σ (embeddings in the
	// single-graph setting, containing transactions in the DB setting).
	MinSupport int
	// K bounds how many patterns SpiderMine targets (its top-K
	// semantics). Baselines without top-K semantics ignore it; use
	// MaxPatterns to bound any miner's output size.
	K int
	// Dmax bounds result-pattern diameter (SpiderMine).
	Dmax int
	// Epsilon is SpiderMine's error bound ε.
	Epsilon float64
	// Radius is the spider radius r (SpiderMine).
	Radius int
	// Vmin is SpiderMine's large-pattern vertex bound (default |V|/10).
	Vmin int
	// Measure selects the support definition where the miner honors one.
	Measure Measure
	// Seed drives all randomness; runs are deterministic per seed.
	Seed int64
	// Workers sets mining parallelism (0/1 sequential, > 1 that many
	// goroutines, < 0 GOMAXPROCS). Results are identical across settings
	// (the deterministic-parallelism contract of internal/par).
	Workers int

	// MaxPatterns caps how many patterns the Result carries (0 =
	// unlimited). Miners with native budgets (MoSS) stop enumerating at
	// the cap; otherwise the result list is truncated after mining.
	// Hitting the cap sets Truncated = TruncatedMaxPatterns.
	MaxPatterns int
	// MaxWallClock bounds the run's wall-clock (0 = unlimited). Unlike a
	// deadline on ctx, exhausting this budget is a normal outcome: the
	// Result is returned with Truncated = TruncatedDeadline and a nil
	// error.
	MaxWallClock time.Duration
	// MaxEmbeddings caps the embedding list carried per pattern (0 =
	// the miner's default). Trimmed support is a lower bound: patterns
	// can be lost, never falsely admitted.
	MaxEmbeddings int

	// MaxSpiders and MaxLeavesPerStar are SpiderMine Stage I enumeration
	// budgets (0 = unlimited); bound them on scale-free hosts.
	MaxSpiders       int
	MaxLeavesPerStar int

	// OnProgress, when non-nil, receives streaming stage events
	// synchronously on the coordinating goroutine (see the package
	// comment). Events never influence mining results.
	OnProgress func(ProgressEvent)
}

// ProgressEvent is one streaming stage report from a run. The JSON form
// (used verbatim as the NDJSON wire format of serving surfaces) keys
// fields in lower snake case and carries Elapsed in nanoseconds, the
// time.Duration integer encoding; zero-valued optional counters are
// omitted.
type ProgressEvent struct {
	Miner     string        `json:"miner"`               // registry name of the reporting miner
	Stage     string        `json:"stage"`               // miner-specific stage name ("spiders", "growth", ...)
	Restart   int           `json:"restart,omitempty"`   // randomized restart index, where applicable
	Iteration int           `json:"iteration,omitempty"` // 1-based iteration within the stage
	Spiders   int           `json:"spiders,omitempty"`   // |S_all| after Stage I (SpiderMine)
	Patterns  int           `json:"patterns"`            // current working-set / result size
	Merges    int           `json:"merges,omitempty"`    // cumulative merges (SpiderMine)
	Elapsed   time.Duration `json:"elapsed_ns"`          // wall-clock since the run started
}

// Truncation says why a Result carries fewer patterns than an unbounded
// run would have produced.
type Truncation string

const (
	// TruncatedNone: the run completed within every budget.
	TruncatedNone Truncation = ""
	// TruncatedMaxPatterns: the MaxPatterns budget capped the result.
	TruncatedMaxPatterns Truncation = "max-patterns"
	// TruncatedDeadline: a wall-clock bound stopped the run (the
	// MaxWallClock budget, or — together with a non-nil error — a
	// deadline on the caller's ctx).
	TruncatedDeadline Truncation = "deadline"
	// TruncatedCanceled: the caller's ctx was cancelled; the Result
	// holds the deterministic committed partial state.
	TruncatedCanceled Truncation = "canceled"
	// TruncatedBudget: a miner-internal enumeration budget (e.g. MoSS's
	// pattern-space exhaustion guard) stopped the run early.
	TruncatedBudget Truncation = "budget"
)

// StageTime records one stage's wall-clock share. Durations marshal as
// nanoseconds (the time.Duration integer encoding), matching
// ProgressEvent's wire form.
type StageTime struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Stats is the uniform per-run statistics block. Fields a miner does not
// track stay zero.
type Stats struct {
	Spiders        int           `json:"spiders,omitempty"`         // |S_all| mined in Stage I (SpiderMine)
	SeedDraws      int           `json:"seed_draws,omitempty"`      // Lemma 2's M (SpiderMine)
	GrowIterations int           `json:"grow_iterations,omitempty"` // growth iterations executed
	Merges         int           `json:"merges,omitempty"`          // successful merges
	MergeSkipped   int           `json:"merge_skipped,omitempty"`   // merge groups resolved as failed without evaluation (SpiderMine)
	IsoSkipped     int64         `json:"iso_skipped,omitempty"`     // isomorphism tests pruned away
	IsoRun         int64         `json:"iso_run,omitempty"`         // exact isomorphism tests executed
	CanonRun       int64         `json:"canon_run,omitempty"`       // canonical-code computations (SpiderMine identity checks)
	CanonNodes     int64         `json:"canon_nodes,omitempty"`     // canonicalization search nodes; CanonNodes/CanonRun quantifies orbit/trace pruning
	Stages         []StageTime   `json:"stages,omitempty"`          // per-stage wall-clock, in stage order
	Elapsed        time.Duration `json:"elapsed_ns"`                // total wall-clock of the run
}

// Result is the uniform mining output: patterns (largest-first, as each
// miner defines its order), run statistics, and why — if at all — the
// result was truncated.
type Result struct {
	Miner     string
	Patterns  []*Pattern
	Stats     Stats
	Truncated Truncation
}

// Miner is the uniform mining interface every registered engine
// implements. Mine observes ctx under the package's cancellation
// contract and never mutates the host.
type Miner interface {
	// Name is the registry key.
	Name() string
	// Describe is a one-line human description.
	Describe() string
	// Mine runs the engine against the host under opts.
	Mine(ctx context.Context, host Host, opts Options) (*Result, error)
}

// Package moss implements a MoSS/gSpan-style *complete* frequent-subgraph
// miner for the single-graph setting (Fiedler & Borgelt, MLG 2007; Yan &
// Han, ICDM 2002): breadth-first edge-by-edge growth from frequent single
// edges with structural deduplication, counting overlap-aware support.
//
// Completeness is the point — and the weakness: the pattern space is
// exponential, so on dense or large inputs the miner exhausts its budget
// and reports Completed=false, exactly as MoSS fails with "-" entries in
// Figure 16 of the paper.
package moss

import (
	"context"
	"time"

	"repro/internal/graph"
	"repro/internal/miner"
	"repro/internal/pattern"
	"repro/internal/support"
)

// Config parameterizes the miner.
type Config struct {
	// MinSupport is σ.
	MinSupport int
	// Measure is the support measure (default HarmfulOverlap, the MoSS
	// definition the paper adopts).
	Measure support.Measure
	// MaxPatterns aborts after this many frequent patterns (0 = 1e6).
	MaxPatterns int
	// Timeout aborts the run (0 = no limit). The paper aborted runs at 10
	// hours; tests use seconds.
	Timeout time.Duration
	// MaxEmbPerPattern caps embedding bookkeeping (default 1024).
	MaxEmbPerPattern int
	// MaxEdges caps pattern size (0 = unlimited), handy for level studies.
	MaxEdges int
}

func (c Config) withDefaults() Config {
	if c.MinSupport <= 0 {
		c.MinSupport = 2
	}
	if c.MaxPatterns <= 0 {
		c.MaxPatterns = 1 << 20
	}
	if c.MaxEmbPerPattern <= 0 {
		c.MaxEmbPerPattern = 1024
	}
	return c
}

// Result reports a complete-mining run.
type Result struct {
	// Patterns is every frequent pattern found (structurally distinct).
	Patterns []*pattern.Pattern
	// Completed is false if the budget or timeout aborted enumeration, in
	// which case Patterns is a prefix of the complete set.
	Completed bool
	// Elapsed is the wall-clock mining time.
	Elapsed time.Duration
}

// MineContext enumerates all frequent patterns of g level-by-level
// (pattern size in edges). Cancellation is observed once per frontier
// pattern (the same granularity as the Timeout check); a cancelled run
// returns the frequent-pattern prefix enumerated so far with
// Completed=false, plus ctx.Err().
func MineContext(ctx context.Context, g *graph.Graph, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	deadline := time.Time{}
	if cfg.Timeout > 0 {
		deadline = start.Add(cfg.Timeout)
	}
	supFn := func(embs []pattern.Embedding) int { return len(embs) }
	lim := miner.Limits{MaxEmbPerPattern: cfg.MaxEmbPerPattern}

	measureOK := func(p *pattern.Pattern) bool {
		return support.Of(p.G, p.Emb, cfg.Measure) >= cfg.MinSupport
	}

	level := miner.SingleEdgeSeeds(g, cfg.MinSupport, lim, supFn)
	var kept []*pattern.Pattern
	for _, p := range level {
		if measureOK(p) {
			kept = append(kept, p)
		}
	}
	res := &Result{Completed: true}
	res.Patterns = append(res.Patterns, kept...)
	frontier := kept
	for len(frontier) > 0 {
		var next []*pattern.Pattern
		for _, p := range frontier {
			if err := ctx.Err(); err != nil {
				res.Completed = false
				res.Elapsed = time.Since(start)
				res.Patterns = append(res.Patterns, next...)
				return res, err
			}
			if !deadline.IsZero() && time.Now().After(deadline) {
				res.Completed = false
				res.Elapsed = time.Since(start)
				return res, nil
			}
			if len(res.Patterns)+len(next) >= cfg.MaxPatterns {
				res.Completed = false
				res.Elapsed = time.Since(start)
				res.Patterns = append(res.Patterns, next...)
				return res, nil
			}
			if cfg.MaxEdges > 0 && p.Size() >= cfg.MaxEdges {
				continue
			}
			for _, q := range miner.Extensions(g, p, cfg.MinSupport, lim, supFn) {
				if measureOK(q) {
					next = append(next, q)
				}
			}
		}
		next = miner.DedupeStructures(next)
		// Cross-level dedupe: an extension can re-create a structure found
		// via a different parent in a previous level.
		next = dedupeAgainst(res.Patterns, next)
		res.Patterns = append(res.Patterns, next...)
		frontier = next
	}
	res.Elapsed = time.Since(start)
	return res, nil
}

func dedupeAgainst(have, candidates []*pattern.Pattern) []*pattern.Pattern {
	if len(candidates) == 0 {
		return candidates
	}
	combined := make([]*pattern.Pattern, 0, len(have)+len(candidates))
	combined = append(combined, have...)
	combined = append(combined, candidates...)
	merged := miner.DedupeStructures(combined)
	// Entries beyond len(have) are the genuinely new ones.
	if len(merged) <= len(have) {
		return nil
	}
	return merged[len(have):]
}

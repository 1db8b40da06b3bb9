package experiments

import (
	"context"
	"errors"
	"time"

	"repro/internal/gen"
	"repro/mine"
)

// MinersComparison runs every engine registered in the public mine façade
// over the GID-1 synthetic network — the cross-miner comparison the
// paper's Figures 4–8 make, expressed through the serving-layer API (one
// Host, uniform Options, uniform Result). It doubles as the façade's
// integration harness inside the experiment suite: every registered name
// must mine through mine.Get(name).Mine(ctx, host, opts) and return a
// schema-valid Result. Complete miners (MoSS) run under a wall-clock
// budget; the truncation column records who exhausted it — the paper's
// "-" entries, as data.
func MinersComparison(ctx context.Context, p Params) *Report {
	g, injected := gen.Synthetic(gen.GIDConfig(1, p.Seed))
	budget := 20 * time.Second
	if p.Quick {
		budget = 2 * time.Second
	}
	rep := &Report{
		ID:     "miners",
		Title:  "façade: every registered miner on GID 1, uniform interface",
		Header: []string{"miner", "patterns", "top|V|", "top|E|", "elapsed", "truncated"},
		Notes: []string{
			"all engines invoked as mine.Get(name).Mine(ctx, host, opts) with identical Options",
			itoa(len(injected)) + " large patterns injected; only SpiderMine carries a recovery guarantee (Lemma 2)",
		},
	}
	for _, name := range mine.Names() {
		m, err := mine.Get(name)
		if err != nil {
			rep.Rows = append(rep.Rows, []string{name, "-", "-", "-", "-", err.Error()})
			continue
		}
		res, err := m.Mine(ctx, mine.SingleGraph(g), mine.Options{
			MinSupport:   2,
			K:            10,
			Dmax:         4,
			Seed:         p.Seed,
			Workers:      p.Workers,
			MaxPatterns:  50,
			MaxWallClock: budget,
		})
		if err != nil {
			row := []string{name, "-", "-", "-", "-", "error: " + err.Error()}
			if res != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
				// ctx fired: report the committed partials.
				row = []string{name, itoa(len(res.Patterns)), "-", "-", res.Stats.Elapsed.Round(time.Millisecond).String(), string(res.Truncated)}
			}
			rep.Rows = append(rep.Rows, row)
			continue
		}
		topV, topE := "-", "-"
		if len(res.Patterns) > 0 {
			topV = itoa(res.Patterns[0].NV())
			topE = itoa(res.Patterns[0].Size())
		}
		rep.Rows = append(rep.Rows, []string{
			name,
			itoa(len(res.Patterns)),
			topV,
			topE,
			res.Stats.Elapsed.Round(time.Millisecond).String(),
			string(res.Truncated),
		})
	}
	return rep
}

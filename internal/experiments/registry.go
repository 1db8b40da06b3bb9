package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"
)

// Params tunes a registry run. Quick mode shrinks workloads so the full
// suite finishes in minutes; full mode uses the paper's sizes.
type Params struct {
	Seed  int64
	Quick bool
	// Workers sets mining parallelism for every SpiderMine invocation an
	// experiment performs (0/1 sequential, > 1 that many goroutines, < 0
	// GOMAXPROCS; the Fig. 13/17 scale-free sweeps read 0 as every CPU).
	// The parallel engine is deterministic, so regenerated tables are
	// identical across settings — only wall-clock changes.
	Workers int
}

// scaleWorkers is the worker count with an all-CPUs default: the
// large-scale sweeps (fig13/fig17-class Stage I workloads) always ran on
// every core before the -workers flag existed, and the engine is
// deterministic, so only an explicit setting should slow them down.
func scaleWorkers(workers int) int {
	if workers != 0 {
		return workers
	}
	return -1
}

// Runner produces a report for one experiment id, mining under ctx. Once
// ctx fires, the engines return their committed partial results and the
// report holds what was mined before the cutoff.
type Runner func(ctx context.Context, p Params) *Report

// Registry maps experiment ids (DESIGN.md's per-experiment index) to
// drivers. Populated in init to allow aliases without an initialization
// cycle.
var Registry map[string]Runner

// aliases maps each experiment id whose artifact another experiment's
// report already holds to that experiment's id: Fig. 12 is read off the
// Fig. 11 sweep, and Fig. 17 off the Fig. 13 one.
var aliases = map[string]string{"fig12": "fig11", "fig17": "fig13"}

func init() {
	Registry = registryEntries()
	for id, to := range aliases {
		Registry[id] = func(ctx context.Context, p Params) *Report { return Registry[to](ctx, p) }
	}
}

func registryEntries() map[string]Runner {
	return map[string]Runner{
		"fig4": func(ctx context.Context, p Params) *Report { return Fig4to8(ctx, 1, p.Seed, p.Workers) },
		"fig5": func(ctx context.Context, p Params) *Report { return Fig4to8(ctx, 2, p.Seed, p.Workers) },
		"fig6": func(ctx context.Context, p Params) *Report { return Fig4to8(ctx, 3, p.Seed, p.Workers) },
		"fig7": func(ctx context.Context, p Params) *Report { return Fig4to8(ctx, 4, p.Seed, p.Workers) },
		"fig8": func(ctx context.Context, p Params) *Report { return Fig4to8(ctx, 5, p.Seed, p.Workers) },
		"fig9": func(ctx context.Context, p Params) *Report {
			sizes := []int{100, 200, 300, 400, 500}
			timeout := 30 * time.Second
			if p.Quick {
				sizes = []int{100, 200, 300}
				timeout = 3 * time.Second
			}
			return Fig9(ctx, sizes, p.Seed, timeout, p.Workers)
		},
		"fig10": func(ctx context.Context, p Params) *Report {
			sizes := []int{500, 1500, 2500, 3500, 4500, 5500, 6500, 7500, 8500, 9500, 10500}
			if p.Quick {
				sizes = []int{500, 1500, 2500}
			}
			return Fig10(ctx, sizes, p.Seed, p.Workers)
		},
		"fig11": func(ctx context.Context, p Params) *Report {
			sizes := []int{1000, 5000, 10000, 15000, 20000, 25000, 30000, 35000, 40000}
			if p.Quick {
				sizes = []int{1000, 3000, 6000}
			}
			return Fig11and12(ctx, sizes, p.Seed, p.Workers)
		},
		"fig13": func(ctx context.Context, p Params) *Report {
			sizes := []int{1000, 3000, 6000, 10000, 15000, 20000}
			if p.Quick {
				sizes = []int{500, 1000}
			}
			return Fig13and17(ctx, sizes, p.Seed, p.Workers)
		},
		"fig14": func(ctx context.Context, p Params) *Report { return Fig14(ctx, p.Seed, scaleOf(p), p.Workers) },
		"fig15": func(ctx context.Context, p Params) *Report { return Fig15(ctx, p.Seed, scaleOf(p), p.Workers) },
		"fig16": func(ctx context.Context, p Params) *Report {
			timeout := 60 * time.Second
			if p.Quick {
				timeout = 3 * time.Second
			}
			return Fig16(ctx, p.Seed, timeout, p.Workers)
		},
		"fig18": func(ctx context.Context, p Params) *Report {
			scale := 1.0
			if p.Quick {
				scale = 0.1
			}
			return Fig18(ctx, p.Seed, scale, p.Workers)
		},
		"fig19": func(ctx context.Context, p Params) *Report {
			scale := 1.0
			if p.Quick {
				scale = 0.1
			}
			return Fig19(ctx, []int{1, 2, 3, 4}, p.Seed, scale, p.Workers)
		},
		"fig20": func(ctx context.Context, p Params) *Report { return Fig20(ctx, p.Seed, scaleOf(p), p.Workers) },
		"fig21": func(ctx context.Context, p Params) *Report { return Fig21(ctx, p.Seed, scaleOf(p), p.Workers) },
		"appC3": func(ctx context.Context, p Params) *Report {
			rs := []int{1, 2, 3}
			if p.Quick {
				rs = []int{1, 2}
			}
			return AppC3(ctx, rs, p.Seed, scaleOf(p))
		},
		"appC4": func(ctx context.Context, p Params) *Report {
			return AppC4(ctx, []float64{0.45, 0.25, 0.05}, p.Seed, scaleOf(p), p.Workers)
		},
		"lemma2": func(context.Context, Params) *Report { return Lemma2Table() },
		"grew":   func(ctx context.Context, p Params) *Report { return GrewComparison(ctx, p.Seed, p.Workers) },
		"guarantee": func(ctx context.Context, p Params) *Report {
			trials := 6
			if p.Quick {
				trials = 3
			}
			_, rep := GuaranteeCheck(ctx, trials, 0.1, p.Seed, p.Workers)
			return rep
		},
		"ablations": func(ctx context.Context, p Params) *Report { return Ablations(ctx, p.Seed, p.Workers) },
		"miners":    MinersComparison,
	}
}

func scaleOf(p Params) float64 {
	if p.Quick {
		return 0.25
	}
	return 1.0
}

// IDs returns the registered experiment ids, sorted.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// RunContext executes one experiment by id, mining under ctx with
// p.Workers. A ctx that has fired before the run starts short-circuits
// with ctx.Err() and no report; one that fires during the run returns the
// partial report together with ctx.Err(), so a caller can show what was
// mined but never mistakes a cut run for a whole one.
func RunContext(ctx context.Context, id string, p Params) (*Report, error) {
	r, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rep := r(ctx, p)
	return rep, ctx.Err()
}

// Command spidermine mines frequent patterns of a graph in LG format
// (see ReadLG for the format) with any registered miner — SpiderMine by
// default, or any baseline via -miner.
//
// Usage:
//
//	spidermine -in graph.lg -k 10 -support 2 -dmax 6 -epsilon 0.1
//	spidermine -in graph.lg -miner subdue -support 3
//	spidermine -in graph.lg -timeout 30s        # exit 1 if exceeded
//	spidermine -mmap -in host.spc1 -k 10        # mmap'd SPC1 image, no decode
//	spidermine -list-miners
//
// Each returned pattern is printed as an LG block plus a summary line; add
// -stats for mining statistics. A run stopped by the caller's clock — the
// -timeout deadline — exits non-zero *after* printing the deterministic
// partial results committed before the stop; output is flushed before the
// process exits (main returns the exit code to a single os.Exit at the
// top, so no deferred writer is ever skipped).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/mine"
)

func main() {
	// The only os.Exit in the program: run returns the exit code with all
	// of its defers — output flushes, file closes — already executed, so
	// committed partial results can never be lost to an early exit.
	os.Exit(run())
}

func run() int {
	var (
		in         = flag.String("in", "", "input graph file in LG format (required; - for stdin)")
		useMmap    = flag.Bool("mmap", false, "treat -in as an SPC1 graph image (gengraph -format spc1) and mmap it instead of decoding: O(1) open, mining reads from the page cache, hosts larger than RAM work")
		minerName  = flag.String("miner", "spidermine", "mining engine (see -list-miners)")
		listMiners = flag.Bool("list-miners", false, "list registered miners and exit")
		timeout    = flag.Duration("timeout", 0, "abort mining after this long and exit non-zero (0 = no limit)")
		k          = flag.Int("k", 10, "number of patterns K")
		sup        = flag.Int("support", 2, "support threshold σ")
		dmax       = flag.Int("dmax", 6, "pattern diameter bound Dmax")
		epsilon    = flag.Float64("epsilon", 0.1, "error bound ε (success probability 1-ε)")
		vmin       = flag.Int("vmin", 0, "minimum large-pattern vertex count Vmin (default |V|/10)")
		seed       = flag.Int64("seed", 1, "random seed")
		workers    = flag.Int("workers", 0, "mining parallelism: 0/1 sequential, N goroutines, -1 all CPUs (mined patterns and -stats work counters are identical across settings)")
		maxLeaves  = flag.Int("max-leaves", 0, "cap star-spider leaves in Stage I (0 = unlimited; bound this on scale-free graphs)")
		maxSpiders = flag.Int("max-spiders", 0, "cap Stage I spider enumeration (0 = unlimited; bound this on scale-free graphs)")
		maxPat     = flag.Int("max-patterns", 0, "cap reported patterns (0 = unlimited)")
		measure    = flag.String("measure", "all", "support measure: all | disjoint | harmful")
		stats      = flag.Bool("stats", false, "print mining statistics")
		progress   = flag.Bool("progress", false, "stream per-stage progress to stderr")
		asDOT      = flag.Bool("dot", false, "emit patterns as Graphviz DOT instead of LG")
		asJSON     = flag.Bool("json", false, "emit patterns as a JSON array")
	)
	flag.Parse()
	out := bufio.NewWriter(os.Stdout)
	defer out.Flush()
	if *listMiners {
		for _, name := range mine.Names() {
			m, _ := mine.Get(name)
			fmt.Fprintf(out, "%-12s %s\n", name, m.Describe())
		}
		return 0
	}
	if *in == "" {
		fmt.Fprintln(os.Stderr, "spidermine: -in is required")
		flag.Usage()
		return 2
	}
	var (
		g    *mine.Graph
		name string
		err  error
	)
	switch {
	case *useMmap:
		if *in == "-" {
			return fail(errors.New("-mmap needs a seekable file, not stdin"))
		}
		m, merr := mine.OpenMapped(*in)
		if merr != nil {
			return fail(merr)
		}
		// The mapping must outlive mining and printing; run returns
		// through a single path, so the defer covers every exit.
		defer m.Close()
		g, name = m.Graph(), *in
	case *in == "-":
		g, name, err = mine.ReadLG(os.Stdin)
	default:
		f, ferr := os.Open(*in)
		if ferr != nil {
			return fail(ferr)
		}
		g, name, err = mine.ReadLG(f)
		f.Close()
	}
	if err != nil {
		return fail(err)
	}
	if name == "" {
		name = *in
	}
	fmt.Fprintf(out, "mining %s with %s: %v\n", name, *minerName, g)

	engine, err := mine.Get(*minerName)
	if err != nil {
		return fail(err)
	}
	opts := mine.Options{
		MinSupport:       *sup,
		K:                *k,
		Dmax:             *dmax,
		Epsilon:          *epsilon,
		Vmin:             *vmin,
		Seed:             *seed,
		Measure:          mine.Measure(*measure),
		Workers:          *workers,
		MaxLeavesPerStar: *maxLeaves,
		MaxSpiders:       *maxSpiders,
		MaxPatterns:      *maxPat,
	}
	if *progress {
		opts.OnProgress = func(ev mine.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "[%8.3fs] %s/%s restart=%d iter=%d patterns=%d merges=%d\n",
				ev.Elapsed.Seconds(), ev.Miner, ev.Stage, ev.Restart, ev.Iteration, ev.Patterns, ev.Merges)
		}
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()

	res, err := engine.Mine(ctx, mine.SingleGraph(g), opts)
	// A fired caller ctx — our -timeout deadline, or any cancellation —
	// still carries deterministic committed partials: print them, then
	// exit non-zero.
	ctxStopped := err != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled))
	if err != nil && !ctxStopped {
		return fail(err)
	}
	if perr := printPatterns(out, res, *asJSON, *asDOT); perr != nil {
		return fail(perr)
	}
	if *stats {
		printStats(out, res)
	}
	if ferr := out.Flush(); ferr != nil {
		return fail(ferr)
	}
	if ctxStopped {
		fmt.Fprintf(os.Stderr, "spidermine: %v (timeout %v); printed the partial results committed before the stop\n", err, *timeout)
		return 1
	}
	return 0
}

func printPatterns(out io.Writer, res *mine.Result, asJSON, asDOT bool) error {
	if asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		return enc.Encode(res.Patterns)
	}
	for i, p := range res.Patterns {
		fmt.Fprintf(out, "\n# pattern %d: |V|=%d |E|=%d diam=%d embeddings=%d\n",
			i+1, p.NV(), p.Size(), p.G.Diameter(), len(p.Emb))
		var err error
		if asDOT {
			err = p.G.WriteDOT(out, fmt.Sprintf("pattern-%d", i+1))
		} else {
			err = p.G.WriteLG(out, fmt.Sprintf("pattern-%d", i+1))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func printStats(out io.Writer, res *mine.Result) {
	s := res.Stats
	fmt.Fprintf(out, "\nstats{miner=%s patterns=%d spiders=%d M=%d iters=%d merges=%d isoSkip=%d isoRun=%d elapsed=%v",
		res.Miner, len(res.Patterns), s.Spiders, s.SeedDraws, s.GrowIterations, s.Merges, s.IsoSkipped, s.IsoRun, s.Elapsed.Round(time.Millisecond))
	for _, st := range s.Stages {
		fmt.Fprintf(out, " t[%s]=%v", st.Name, st.Duration.Round(time.Millisecond))
	}
	fmt.Fprintf(out, " truncated=%q}\n", string(res.Truncated))
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "spidermine: %v\n", err)
	return 1
}

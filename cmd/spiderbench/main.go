// Command spiderbench regenerates the paper's tables and figures.
//
// Usage:
//
//	spiderbench -experiment fig4          # one experiment
//	spiderbench -all -quick               # full suite, shrunken workloads
//	spiderbench -list                     # available experiment ids
//
// Each experiment prints an aligned table whose rows mirror the data the
// paper plots; the accompanying note records the expected shape.
//
// Host-file mode benchmarks out-of-core mining against a concrete file
// instead of a generated workload: open cost, Stage I star mining time,
// and heap growth, with -mmap an SPC1 image is mapped (no decode, no
// heap copy of the adjacency) versus the default decode-to-RAM path:
//
//	gengraph -kind ba -n 125000 -attach 8 -format spc1 -o ba1m.spc1
//	spiderbench -host ba1m.spc1 -mmap
//	spiderbench -host ba1m.lg             # RAM twin for comparison
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/spider"
)

func main() {
	var (
		expID      = flag.String("experiment", "", "experiment id to run (see -list)")
		all        = flag.Bool("all", false, "run every experiment")
		quick      = flag.Bool("quick", false, "shrink workloads for a fast pass")
		seed       = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		workers    = flag.Int("workers", 0, "mining parallelism: 0/1 sequential, N goroutines, -1 all CPUs (mined patterns and work counters are identical across settings; timings differ)")
		timeout    = flag.Duration("timeout", 0, "wall-clock budget for the whole invocation; exceeding it renders partial tables and exits non-zero (0 = no limit)")
		list       = flag.Bool("list", false, "list experiment ids and exit")
		verify     = flag.Bool("verify", false, "check every paper claim against regenerated artifacts")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memprofile = flag.String("memprofile", "", "write an allocation profile taken at exit to this file (go tool pprof)")
		hostPath   = flag.String("host", "", "host-file mode: benchmark open + Stage I over this graph file (LG text, or an SPC1 image with -mmap) instead of running experiments")
		useMmap    = flag.Bool("mmap", false, "with -host: the file is an SPC1 image; mmap it instead of decoding")
		minSup     = flag.Int("support", 2, "with -host: Stage I support threshold")
		maxLeaves  = flag.Int("max-leaves", 4, "with -host: cap star-spider leaves (0 = unlimited; Stage I is combinatorial in hub degree on scale-free hosts, see Fig. 17)")
		maxSpiders = flag.Int("max-spiders", 0, "with -host: abort Stage I past this many frequent spiders (0 = unlimited)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spiderbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "spiderbench: -cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spiderbench: -memprofile: %v\n", err)
			os.Exit(1)
		}
		// Written at exit so the profile covers the whole run; GC first so
		// the heap profile reflects live retention, not transient garbage.
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "spiderbench: -memprofile: %v\n", err)
			}
			f.Close()
		}()
	}
	ctx, cancel := context.Background(), context.CancelFunc(func() {})
	if *timeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, *timeout)
	}
	defer cancel()
	if *hostPath != "" {
		if err := benchHost(ctx, *hostPath, *useMmap, spider.Options{
			MinSupport: *minSup, MaxLeaves: *maxLeaves, MaxSpiders: *maxSpiders, Workers: *workers,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "spiderbench: -host: %v\n", err)
			os.Exit(1)
		}
		return
	}
	params := experiments.Params{Seed: *seed, Quick: *quick, Workers: *workers}
	if *verify {
		lines, failures := experiments.VerifyAll(ctx, params)
		for _, l := range lines {
			fmt.Println(l)
		}
		if failures > 0 {
			fmt.Printf("\n%d claim(s) failed\n", failures)
			os.Exit(1)
		}
		fmt.Println("\nall claims hold")
		return
	}
	switch {
	case *all:
		for _, id := range experiments.IDs() {
			if id == "fig12" || id == "fig17" {
				continue // aliases of fig11/fig13
			}
			runOne(ctx, id, params)
		}
	case *expID != "":
		runOne(ctx, *expID, params)
	default:
		fmt.Fprintln(os.Stderr, "spiderbench: need -experiment <id>, -all, or -list")
		flag.Usage()
		os.Exit(2)
	}
}

// benchHost is the out-of-core host benchmark: open the file (mmap'd
// SPC1 image or decoded LG), report open cost and host shape, run
// Stage I star mining, and report the heap the run grew by — the
// number the mmap path keeps flat no matter how big the host is. Stage I
// mines under ctx; a cut run prints its partial star count and returns
// ctx's error.
func benchHost(ctx context.Context, path string, useMmap bool, opt spider.Options) error {
	var msBefore runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&msBefore)

	var g *graph.Graph
	t0 := time.Now()
	if useMmap {
		m, err := graph.OpenMapped(path)
		if err != nil {
			return err
		}
		defer m.Close()
		m.Advise(graph.AdviceRandom) // Stage I reads adjacency in matcher order
		g = m.Graph()
	} else {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		var name string
		g, name, err = graph.ReadLG(f)
		f.Close()
		if err != nil {
			return err
		}
		_ = name
	}
	openDur := time.Since(t0)
	fmt.Printf("host        %s (mmap=%v)\n", path, useMmap)
	fmt.Printf("open        %v\n", openDur)
	fmt.Printf("vertices    %d\n", g.N())
	fmt.Printf("edges       %d\n", g.M())
	fmt.Printf("max_degree  %d\n", g.MaxDegree())

	t1 := time.Now()
	stars, err := spider.MineStarsContext(ctx, g, opt)
	mineDur := time.Since(t1)

	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)
	heapGrowth := int64(msAfter.HeapAlloc) - int64(msBefore.HeapAlloc)

	fmt.Printf("stage1      %v (%d frequent stars, support>=%d, max_leaves=%d)\n", mineDur, stars.Len(), opt.MinSupport, opt.MaxLeaves)
	fmt.Printf("heap_growth %.1f MiB\n", float64(heapGrowth)/(1<<20))
	return err
}

func runOne(ctx context.Context, id string, params experiments.Params) {
	t0 := time.Now()
	rep, err := experiments.RunContext(ctx, id, params)
	if rep == nil {
		if errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(os.Stderr, "spiderbench: timeout exceeded before %s could run\n", id)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "spiderbench: %v\n", err)
		os.Exit(1)
	}
	rep.Render(os.Stdout)
	fmt.Printf("(%s finished in %v)\n\n", id, time.Since(t0).Round(time.Millisecond))
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiderbench: timeout exceeded; tables above may be partial\n")
		os.Exit(1)
	}
}

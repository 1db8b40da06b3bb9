// Command bench is the repository's benchmark. Each run executes one
// workload end to end against the repository's packages, checks that
// the outputs are correct and prints its metrics:
//
//	bash bench/run.sh --workload gid1-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// makes a separate traced pass of the same workload and reports the
// per-layer split instead, plus the tracing overhead. Every input is
// generated from --seed. Human-readable lines ("name value unit n= p25=
// median= p75=") come first; the last line of standard output is one
// JSON object with the keys correct, attempted, failed and metrics.
// README.md lists the workloads, the metrics and how they map onto each
// other.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json at the
// repository root carries the same lists.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, reported by every
// workload with tracing off. What "operation" means per workload is in
// README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"mean_heap_mib", "MiB", "lower"},
	{"alloc_mib_per_op", "MiB", "lower"},
}

// perLayer are the traced run's metrics. A workload reports 0 for a
// layer it does not exercise.
var perLayer = []metricDef{
	{"spidermine.spiders_ms", "ms", "lower"},
	{"spidermine.seeds_ms", "ms", "lower"},
	{"spidermine.growth_ms", "ms", "lower"},
	{"spidermine.recovery_ms", "ms", "lower"},
	{"spidermine.select_ms", "ms", "lower"},
	{"mine.facade_ms", "ms", "lower"},
	{"spidermine.spiders", "count", "lower"},
	{"spidermine.seed_draws", "count", "lower"},
	{"spidermine.grow_iterations", "count", "lower"},
	{"spidermine.merges", "count", "higher"},
	{"canon.iso_run", "count", "lower"},
	{"canon.iso_skipped", "count", "higher"},
	{"canon.canon_run", "count", "lower"},
	{"canon.canon_nodes", "count", "lower"},
	{"spidermine.merge_yield", "ratio", "higher"},
	{"canon.nodes_per_canon", "ratio", "lower"},
	{"par.iso_speculation", "ratio", "lower"},
	{"par.speedup", "ratio", "higher"},
	{"mine.alloc_mib_per_mine", "MiB", "lower"},
	{"spider.stage1_warm_ms", "ms", "lower"},
	{"canon.match_us", "us", "lower"},
	{"canon.canonize_us", "us", "lower"},
	{"trace.overhead", "ratio", "lower"},
	{"serve.queue_wait_ms_p50", "ms", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"http.idle.job_get_ms_p50", "ms", "lower"},
	{"http.idle.submit_repeat_ms_p50", "ms", "lower"},
	{"http.idle.events_stream_ms_p50", "ms", "lower"},
	{"http.idle.reupload_ms_p50", "ms", "lower"},
	{"http.idle.readyz_ms_p50", "ms", "lower"},
	{"http.loaded.job_get_ms_p50", "ms", "lower"},
	{"http.loaded.submit_repeat_ms_p50", "ms", "lower"},
	{"http.loaded.events_stream_ms_p50", "ms", "lower"},
	{"http.loaded.reupload_ms_p50", "ms", "lower"},
	{"http.loaded.readyz_ms_p50", "ms", "lower"},
	{"http.loaded.submit_fresh_ms_p50", "ms", "lower"},
	{"http.loaded.submit_cancel_ms_p50", "ms", "lower"},
	{"store.fsyncs_per_op", "ratio", "lower"},
	{"store.bytes_written_per_op", "bytes", "lower"},
	{"graph.lg_parse_ms", "ms", "lower"},
	{"serve.fingerprint_ms", "ms", "lower"},
	{"graph.spg1_encode_ms", "ms", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"mine.spr1_encode_us", "us", "lower"},
	{"mine.spr1_decode_us", "us", "lower"},
	{"loadgen.dispatch_lag_ms_p99", "ms", "lower"},
	{"store.open_disk_ms", "ms", "lower"},
	{"serve.recover_ms", "ms", "lower"},
	{"graph.spg1_decode_ms", "ms", "lower"},
	{"graph.image_open_ms", "ms", "lower"},
	{"serve.fingerprint_1m_ms", "ms", "lower"},
	{"restart.mapped_graphs", "count", "higher"},
	{"restart.data_dir_mib", "MiB", "lower"},
	{"restart.image_mib", "MiB", "lower"},
	{"restart.heap_after_recover_mib", "MiB", "lower"},
}

// workload is one benchmark workload; why is its one-line reason, as in
// BENCHMARK.json.
type workload struct {
	name, why string
	run       func(*bench) error
}

var workloads = []workload{
	{"gid1-sweep", "sequential facade mines of the paper's Table-1 GID-1 host; growth, merge and canon dominate and the parallel engine is bypassed", runGID1Sweep},
	{"ba5k-par", "the BA-5k scale-free recipe at 2 workers; Stage I hits the spider cap and recovery dominates, so par sharding and merge speculation act", runBA5kPar},
	{"serve-mixed", "spiderload's request mix at SLO_PR7's rates, open loop, on a disk-backed server, idle then with fresh and cancelled jobs; HTTP, cache, scheduler and store writes", runServeMixed},
	{"restart-1m", "repeated restarts of a data dir holding a 1.08M-edge host and 50 cached results; the store read path and recovery", runRestart1M},
}

// bench is one run of one workload: its inputs' seed, the measurement
// length, the sizes it runs at, and what it found.
type bench struct {
	seed    int64
	seconds time.Duration
	trace   bool
	sz      sizes
	dir     string // scratch space for data directories

	setupSecs []float64 // each set-up's wall-clock

	metrics   []metric
	attempted int
	failed    int
	problems  []string
	digest    []byte
}

// metric is one reported value with the spread of the samples behind it.
// A tail names the percentile it was taken at.
type metric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
	At    string  `json:"at,omitempty"`
	summary
}

// report records a metric whose value was derived from samples (n, the
// quartiles); with nil samples the value stands alone (n = 1).
func (b *bench) report(name, unit string, value float64, samples []float64) {
	s := summarize(samples)
	if samples == nil {
		s = summary{N: 1, P25: value, Median: value, P75: value}
	}
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: value, summary: s})
}

// reportDist records the median of samples under name; with no samples
// it reads 0 with n = 0.
func (b *bench) reportDist(name, unit string, samples []float64) {
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: percentile(samples, 500), summary: summarize(samples)})
}

// op counts one attempted operation; a non-nil err marks it failed.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.problem(err)
	}
}

// problem records a check that failed; any problem makes the run
// incorrect.
func (b *bench) problem(err error) {
	const keep = 20
	if len(b.problems) < keep {
		b.problems = append(b.problems, err.Error())
	} else if len(b.problems) == keep {
		b.problems = append(b.problems, "(further problems omitted)")
	}
}

func (b *bench) correct() bool { return len(b.problems) == 0 }

// setup runs once (which builds the workload's state, returning how to
// tear it down) sz.setupReps times, records each wall-clock for setup_s
// and keeps the last state. Work that later runs re-use stays inside once,
// so moving work into set-up shows in setup_s.
func (b *bench) setup(once func() (teardown func(), err error)) (teardown func(), err error) {
	for i := range b.sz.setupReps {
		t0 := time.Now()
		teardown, err = once()
		b.setupSecs = append(b.setupSecs, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i < b.sz.setupReps-1 && teardown != nil {
			teardown()
		}
	}
	return teardown, nil
}

// endToEndMetrics reports the end-to-end metrics from the operations'
// latencies (ms, every repeat) and the measured phase's usage: setup_s
// (median set-up), the median and tail latency, the mean heap and the
// bytes allocated per operation; with the peak heap and the process CPU
// per operation beside them.
//
// The mean heap is the declared memory metric because the peak is not
// steady: it is the heap when the collector happens to start, so its
// spread between runs (0.08–0.15 on gid1-sweep, ba5k-par and serve-mixed)
// was several times the mean's (0.01–0.06).
func (b *bench) endToEndMetrics(latMS []float64, use usage, ops int) {
	b.reportDist("setup_s", "s", b.setupSecs)
	b.reportDist("latency_ms_p50", "ms", latMS)
	b.reportTail("latency_ms_tail", "ms", latMS)
	b.report("mean_heap_mib", "MiB", mean(use.heapMiB), use.heapMiB)
	b.report("alloc_mib_per_op", "MiB", float64(use.alloc)/(1<<20)/float64(max(ops, 1)), nil)
	b.report("peak_heap_mib", "MiB", slices.Max(append(use.heapMiB, 0)), use.heapMiB)
	b.report("cpu_ms_per_op", "ms", ms(use.cpu)/float64(max(ops, 1)), nil)
}

// meter samples the heap every 20ms on a goroutine of its own
// (runtime/metrics reads do not stop the world), and takes the process
// CPU time and the bytes allocated between start and finish.
type meter struct {
	cpu0   time.Duration
	alloc0 uint64
	stop   chan struct{}
	done   chan struct{}
	use    usage
}

// usage is what a meter saw: the heap's objects at each sample (MiB), the
// CPU time and the bytes allocated.
type usage struct {
	heapMiB []float64
	cpu     time.Duration
	alloc   uint64
}

func startMeter() *meter {
	runtime.GC()
	m := &meter{cpu0: cpuTime(), alloc0: allocatedBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			m.use.heapMiB = append(m.use.heapMiB, heapMiB())
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return m
}

func (m *meter) finish() usage {
	close(m.stop)
	<-m.done
	m.use.cpu = cpuTime() - m.cpu0
	m.use.alloc = allocatedBytes() - m.alloc0
	return m.use
}

func heapMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// reportTail reports the tail of samples (tailOf) under name, recording
// the percentile it was taken at.
func (b *bench) reportTail(name, unit string, samples []float64) {
	at, v := tailOf(samples)
	b.metrics = append(b.metrics, metric{Name: name, Unit: unit, Value: v, At: at, summary: summarize(samples)})
}

func allocatedBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// cpuTime is the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeReps times f until it has run at least minReps times and for at
// least minTime, and returns the per-call durations in ms.
func timeReps(minReps int, minTime time.Duration, f func()) []float64 {
	var out []float64
	start := time.Now()
	for len(out) < minReps || time.Since(start) < minTime {
		t0 := time.Now()
		f()
		out = append(out, ms(time.Since(t0)))
	}
	return out
}

// withinTenPercent is the layer-sum check: the layers' mean times must
// add up to within 10% of the mean end-to-end time they split.
func withinTenPercent(what string, layers, total float64) error {
	if total <= 0 || layers < 0.9*total || layers > 1.1*total {
		return fmt.Errorf("layer sum: %s add up to %.3fms of %.3fms end to end", what, layers, total)
	}
	return nil
}

// commit is `git rev-parse HEAD` of the checkout the benchmark runs in,
// or "unknown" without git or outside a repository. The ceiling keeps git
// from taking the commit of a repository that merely encloses the
// checkout.
func commit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// outFile is the -out report: every metric with its spread, plus what
// the numbers were measured on.
type outFile struct {
	Workload     string   `json:"workload"`
	Seed         int64    `json:"seed"`
	Seconds      float64  `json:"seconds"`
	Trace        bool     `json:"trace"`
	Commit       string   `json:"commit"`
	GoVersion    string   `json:"go_version"`
	NumCPU       int      `json:"num_cpu"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	Correct      bool     `json:"correct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	ResultDigest string   `json:"result_digest"`
	Problems     []string `json:"problems,omitempty"`
	Metrics      []metric `json:"metrics"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultMetrics selects the declared metrics for the final line: every
// end-to-end metric untraced (a missing one is a bug), every per-layer
// metric traced (0 for a layer the workload does not exercise).
func (b *bench) resultMetrics() (map[string]resultMetric, error) {
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	out := make(map[string]resultMetric, len(defs))
	for _, d := range defs {
		i := slices.IndexFunc(b.metrics, func(m metric) bool { return m.Name == d.name })
		switch {
		case i >= 0:
			out[d.name] = resultMetric{Value: b.metrics[i].Value, Unit: d.unit}
		case b.trace:
			out[d.name] = resultMetric{Value: 0, Unit: d.unit}
		default:
			return nil, fmt.Errorf("workload reported no %s", d.name)
		}
	}
	return out, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "how long the measured phase runs")
	trace := fs.Int("trace", 0, "1 makes the traced per-layer run instead of the end-to-end one")
	out := fs.String("out", "", "also write the full report as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == *name })
	if i < 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: need -workload (one of %s), -seconds > 0 and -trace 0 or 1\n", strings.Join(names, ", "))
		return 2
	}
	dir := filepath.Join(".bench_build", fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)
	// A run must end within 180s; one that hangs fails without a result.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintf(stderr, "bench: %s did not finish in 170s\n", *name)
		os.RemoveAll(dir)
		os.Exit(1)
	})
	defer watchdog.Stop()

	b := &bench{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1, sz: fullSizes(), dir: dir}
	if err := workloads[i].run(b); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	b.report("failed_frac", "ratio", ratio(int64(b.failed), int64(b.attempted)), nil)
	if err := b.print(stdout, outFile{Workload: *name, Seed: *seed, Seconds: *seconds, Trace: b.trace}, *out); err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", *name, err)
		return 1
	}
	return 0
}

// print writes the human-readable lines, the -out file if asked for, and
// the JSON result line last.
func (b *bench) print(w io.Writer, meta outFile, outPath string) error {
	final, err := b.resultMetrics()
	if err != nil {
		return err
	}
	meta.Commit, meta.GoVersion = commit(), runtime.Version()
	meta.NumCPU, meta.GOMAXPROCS = runtime.NumCPU(), runtime.GOMAXPROCS(0)
	meta.Correct, meta.Attempted, meta.Failed = b.correct(), b.attempted, b.failed
	meta.ResultDigest, meta.Problems, meta.Metrics = hex.EncodeToString(b.digest), b.problems, b.metrics

	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", meta.Workload, meta.Seed, meta.Seconds, meta.Trace)
	fmt.Fprintf(w, "commit %s %s num_cpu %d gomaxprocs %d\n", meta.Commit, meta.GoVersion, meta.NumCPU, meta.GOMAXPROCS)
	for _, m := range b.metrics {
		at := ""
		if m.At != "" {
			at = " at=" + m.At
		}
		fmt.Fprintf(w, "%-36s %14.6f %-5s n=%d p25=%.6g median=%.6g p75=%.6g%s\n", m.Name, m.Value, m.Unit, m.N, m.P25, m.Median, m.P75, at)
	}
	fmt.Fprintf(w, "result_digest %s\n", meta.ResultDigest)
	for _, p := range b.problems {
		fmt.Fprintf(w, "problem: %s\n", p)
	}
	if outPath != "" {
		raw, err := json.MarshalIndent(meta, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(outPath, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	raw, err := json.Marshal(resultLine{Correct: meta.Correct, Attempted: b.attempted, Failed: b.failed, Metrics: final})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}

// digestOf hashes the parts in order; a run's result_digest.
func digestOf(parts [][]byte) []byte {
	h := sha256.New()
	for _, p := range parts {
		h.Write(p)
	}
	return h.Sum(nil)
}

// sizes are the workloads' input sizes and counts. The benchmark runs at
// fullSizes; the smoke tests run the same code at a tiny size.
type sizes struct {
	setupReps int // set-ups per run; setup_s is their median

	gidTrialSeeds int // gid1-sweep: mining seeds per trial
	gidMinTrials  int
	gidWarm       int // warm-up mines per set-up

	baN    int // ba5k-par: host vertices
	baPool int // recipe seeds mined per run

	traffic float64 // serve-mixed: multiplies the request rates of sloMix

	bigN       int // restart-1m: vertices of the BA host (attach 8)
	smallHosts int
	jobs       int // terminal jobs with cached results
	minCycles  int
}

func fullSizes() sizes {
	return sizes{
		setupReps:     3,
		gidTrialSeeds: 100, gidMinTrials: 5, gidWarm: 5,
		baN: 5000, baPool: 3,
		traffic: 1,
		bigN:    135000, smallHosts: 20, jobs: 50, minCycles: 100,
	}
}

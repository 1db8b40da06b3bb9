package obs

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	depth := 7.0
	r.GaugeFunc("g", "a gauge", func() float64 { return depth })
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.Snapshot()["g"]; got != 7.0 {
		t.Errorf("gauge = %v, want 7", got)
	}
	depth = 4 // read at scrape time
	if got := r.Snapshot()["g"]; got != 4.0 {
		t.Errorf("gauge = %v, want 4", got)
	}
	// nil receivers are safe no-ops (metrics are optional wiring).
	var nc *Counter
	var nh *Histogram
	nc.Inc()
	nc.Add(2)
	nh.Observe(1)
	if nc.Value() != 0 {
		t.Error("nil counter recorded something")
	}
}

func TestDuplicateRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.GaugeFunc("dup", "", func() float64 { return 0 })
}

// TestHistogramBuckets pins the bucket assignment rule: le bounds are
// inclusive, values past the last bound land in the overflow bucket.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", 1, []int64{100, 200, 300})
	for _, v := range []int64{1, 100, 101, 200, 250, 301, 1000} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // le=100: {1,100}; le=200: {101,200}; le=300: {250}; +Inf: {301,1000}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if n := snapshotHistogram(h).Count; n != 7 {
		t.Errorf("count = %d, want 7", n)
	}
	if sum := h.sum.Load(); sum != 1+100+101+200+250+301+1000 {
		t.Errorf("sum = %d", sum)
	}
}

// quantile estimates h's q-quantile in raw units the way a snapshot
// does: one load of the bucket counts, then quantileFromCounts.
func quantile(h *Histogram, q float64) float64 {
	counts := make([]uint64, len(h.counts))
	var total uint64
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return quantileFromCounts(q, h.bounds, counts, total)
}

// TestHistogramQuantiles pins the interpolation: uniform mass within a
// bucket yields exact mid-bucket quantiles, bucket-boundary ranks yield
// the bound itself, and overflow mass clamps to the largest finite
// bound.
func TestHistogramQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("q", "", 1, []int64{100, 200, 300, 400})
	// 100 observations, all inside the first bucket: the estimator
	// assumes uniform in-bucket mass, so pN = N (bucket spans 0..100).
	for i := 0; i < 100; i++ {
		h.Observe(50)
	}
	if snap := r.Snapshot()["q"].(HistogramSnapshot); snap.P50 != 50 || snap.P99 != 99 {
		t.Errorf("snapshot p50, p99 = %v, %v, want 50, 99", snap.P50, snap.P99)
	}
	if got := quantile(h, 0.50); got != 50 {
		t.Errorf("p50 = %v, want 50", got)
	}
	if got := quantile(h, 0.99); got != 99 {
		t.Errorf("p99 = %v, want 99", got)
	}
	if got := quantile(h, 1); got != 100 {
		t.Errorf("p100 = %v, want 100 (first bound)", got)
	}

	// Two equal buckets: the p50 rank sits exactly at the first bound.
	h2 := r.Histogram("q2", "", 1, []int64{100, 200})
	for i := 0; i < 10; i++ {
		h2.Observe(50)
		h2.Observe(150)
	}
	if got := quantile(h2, 0.5); got != 100 {
		t.Errorf("p50 = %v, want 100 (bucket boundary)", got)
	}
	if got := quantile(h2, 0.75); got != 150 {
		t.Errorf("p75 = %v, want 150 (mid second bucket)", got)
	}

	// Overflow-bucket quantiles clamp to the largest finite bound.
	h3 := r.Histogram("q3", "", 1, []int64{100})
	h3.Observe(5000)
	if got := quantile(h3, 0.99); got != 100 {
		t.Errorf("overflow p99 = %v, want clamp to 100", got)
	}

	// Empty histogram: quantiles are 0, not NaN.
	h4 := r.Histogram("q4", "", 1, []int64{100})
	if got := quantile(h4, 0.5); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestHistogramScale(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", SecondsScale, []int64{int64(time.Millisecond), int64(time.Second)})
	h.Observe(int64(500 * time.Microsecond))
	snap := snapshotHistogram(h)
	if snap.Sum != 0.0005 {
		t.Errorf("scaled sum = %v, want 0.0005", snap.Sum)
	}
	if snap.P50 <= 0 || snap.P50 > 0.001 {
		t.Errorf("scaled p50 = %v, want within first bucket (0, 0.001]", snap.P50)
	}
}

// TestExpositionGolden pins the Prometheus text format byte-for-byte:
// HELP/TYPE framing, label rendering, cumulative le buckets, _sum and
// _count, and the registration-order/sorted-label layout.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("jobs_total", "jobs accepted")
	r.GaugeFunc("queue_depth", "queued jobs", func() float64 { return 2 })
	cv := r.CounterVec("rejects_total", "rejections by cause", "cause")
	h := r.Histogram("wait_seconds", "queue wait", SecondsScale,
		[]int64{int64(time.Millisecond), int64(10 * time.Millisecond)})

	c.Add(3)
	cv.With("queue_full").Add(2)
	cv.With("draining").Inc()
	h.Observe(int64(500 * time.Microsecond))
	h.Observe(int64(2 * time.Millisecond))
	h.Observe(int64(3 * time.Second))

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP jobs_total jobs accepted
# TYPE jobs_total counter
jobs_total 3
# HELP queue_depth queued jobs
# TYPE queue_depth gauge
queue_depth 2
# HELP rejects_total rejections by cause
# TYPE rejects_total counter
rejects_total{cause="draining"} 1
rejects_total{cause="queue_full"} 2
# HELP wait_seconds queue wait
# TYPE wait_seconds histogram
wait_seconds_bucket{le="0.001"} 1
wait_seconds_bucket{le="0.01"} 2
wait_seconds_bucket{le="+Inf"} 3
wait_seconds_sum 3.0025000000000004
wait_seconds_count 3
`
	if got := buf.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestExpositionLabelledHistogram: vec histograms render one bucket
// series per label value with the label before le.
func TestExpositionLabelledHistogram(t *testing.T) {
	r := NewRegistry()
	hv := r.HistogramVec("run_seconds", "run wall-clock", "miner", SecondsScale, []int64{int64(time.Second)})
	hv.With("spidermine").Observe(int64(100 * time.Millisecond))
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{
		`run_seconds_bucket{miner="spidermine",le="1"} 1`,
		`run_seconds_bucket{miner="spidermine",le="+Inf"} 1`,
		`run_seconds_sum{miner="spidermine"} 0.1`,
		`run_seconds_count{miner="spidermine"} 1`,
	} {
		if !strings.Contains(buf.String(), frag) {
			t.Errorf("exposition missing %q:\n%s", frag, buf.String())
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("weird_total", "", "what")
	cv.With(`a"b\c` + "\n").Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `weird_total{what="a\"b\\c\n"} 1`) {
		t.Errorf("unescaped label:\n%s", buf.String())
	}
}

func TestVecChildrenIndependentAndStable(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("v_total", "", "k")
	a1 := cv.With("a")
	a1.Inc()
	cv.With("b").Add(5)
	if a2 := cv.With("a"); a2 != a1 {
		t.Error("With returned a different child for the same label")
	}
	if cv.With("a").Value() != 1 || cv.With("b").Value() != 5 {
		t.Error("children shared state")
	}
}

func TestSnapshotShapes(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.GaugeFunc("gf", "", func() float64 { return 1.5 })
	r.Histogram("h_seconds", "", SecondsScale, DurationBuckets()).Observe(int64(3 * time.Millisecond))
	cv := r.CounterVec("cv_total", "", "k")
	cv.With("x").Inc()

	snap := r.Snapshot()
	if snap["c_total"] != uint64(2) {
		t.Errorf("counter snapshot %v", snap["c_total"])
	}
	if snap["gf"] != 1.5 {
		t.Errorf("gaugefunc snapshot %v", snap["gf"])
	}
	hs, ok := snap["h_seconds"].(HistogramSnapshot)
	if !ok || hs.Count != 1 || hs.P50 <= 0 {
		t.Errorf("histogram snapshot %#v", snap["h_seconds"])
	}
	byLabel, ok := snap["cv_total"].(map[string]any)
	if !ok || byLabel["x"] != uint64(1) {
		t.Errorf("vec snapshot %#v", snap["cv_total"])
	}
}

// TestRecordSiteNoAlloc enforces the hot-path contract: recording on
// any registered metric allocates nothing (the obs analogue of
// fault.TestPointDisarmedNoAlloc).
func TestRecordSiteNoAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", SecondsScale, DurationBuckets())
	child := r.CounterVec("cv_total", "", "k").With("hot") // held, not looked up per record
	cases := []struct {
		name string
		fn   func()
	}{
		{"Counter.Inc", func() { c.Inc() }},
		{"Histogram.Observe", func() { h.Observe(int64(2 * time.Millisecond)) }},
		{"Vec child Inc", func() { child.Inc() }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestConcurrentScrapeUnderLoad races recorders against scrapers: the
// invariant is no torn reads (cumulative bucket series monotone, counts
// consistent) and a correct final tally. Run under -race in CI.
func TestConcurrentScrapeUnderLoad(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", SecondsScale, DurationBuckets())
	hv := r.HistogramVec("hv_seconds", "", "k", SecondsScale, DurationBuckets())

	const workers, perWorker = 8, 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Scrapers: exposition + snapshot (quantiles included) in a loop
	// until the recorders finish.
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				_ = r.Snapshot()
			}
		}()
	}
	var rec sync.WaitGroup
	for w := 0; w < workers; w++ {
		rec.Add(1)
		go func(w int) {
			defer rec.Done()
			child := hv.With("w") // shared child: contended atomics
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i%50) * int64(time.Millisecond))
				child.Observe(int64(time.Millisecond))
			}
		}(w)
	}
	rec.Wait()
	close(stop)
	wg.Wait()

	if got := c.Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := snapshotHistogram(h).Count; got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := snapshotHistogram(hv.With("w")).Count; got != workers*perWorker {
		t.Errorf("vec histogram count = %d, want %d", got, workers*perWorker)
	}
}

// TestScrapeCallbackMayRecord: scrapes call CounterFunc/GaugeFunc
// callbacks with no registry lock held, so a callback that records into
// a vec of the same registry — With takes that lock — cannot deadlock
// Snapshot or WritePrometheus.
func TestScrapeCallbackMayRecord(t *testing.T) {
	r := NewRegistry()
	vec := r.CounterVec("scrapes_total", "scrapes seen by the callback", "by")
	r.GaugeFunc("depth", "reads a component that records", func() float64 {
		vec.With("callback").Inc()
		return 1
	})
	done := make(chan struct{})
	go func() {
		defer close(done)
		r.Snapshot()
		if err := r.WritePrometheus(io.Discard); err != nil {
			t.Error(err)
		}
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("scrape deadlocked against a callback that records into the registry")
	}
	if got := vec.With("callback").Value(); got != 2 {
		t.Errorf("callback ran %d times, want 2 (one per scrape)", got)
	}
}

func BenchmarkRecordSite(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h_seconds", "", SecondsScale, DurationBuckets())
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		v := int64(3 * time.Millisecond)
		for i := 0; i < b.N; i++ {
			h.Observe(v)
		}
	})
}

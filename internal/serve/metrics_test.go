package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/mine"
)

// tinyHostLG renders a minimal valid LG upload body.
func tinyHostLG(t *testing.T) []byte {
	t.Helper()
	g := mine.FromEdges([]mine.Label{1, 2, 1}, []mine.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	var buf bytes.Buffer
	if err := g.WriteLG(&buf, "tiny"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSubmitErrorClassification pins the Submit error mapping: the
// load-shedding sentinels and injected admission faults are 503
// backpressure, while an unrecognized error — necessarily a server-side
// defect, since the handler validates the request before Submit — is
// 500, never 400. (Regression: unknown Submit errors used to fall
// through to 400, blaming the client for server bugs.)
func TestSubmitErrorClassification(t *testing.T) {
	srv := New(Config{Runners: 1, QueueCap: 1, CacheCap: 0})
	defer srv.Shutdown(context.Background())

	cases := []struct {
		name string
		err  error
		code int
	}{
		{"queue-full", ErrQueueFull, http.StatusServiceUnavailable},
		{"draining", ErrDraining, http.StatusServiceUnavailable},
		{"unknown-error", errors.New("scheduler invariant violated"), http.StatusInternalServerError},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			srv.writeSubmitError(rec, tc.err)
			if rec.Code != tc.code {
				t.Fatalf("writeSubmitError(%v) = %d, want %d", tc.err, rec.Code, tc.code)
			}
			if tc.code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
				t.Fatalf("503 without Retry-After header")
			}
			if tc.code == http.StatusInternalServerError && rec.Header().Get("Retry-After") != "" {
				t.Fatalf("500 must not carry Retry-After (it is not backpressure)")
			}
		})
	}
	if got := srv.metrics.rejections.With(rejectQueueFull).Value(); got != 1 {
		t.Fatalf("queue_full rejections = %d, want 1", got)
	}
	if got := srv.metrics.rejections.With(rejectDraining).Value(); got != 1 {
		t.Fatalf("draining rejections = %d, want 1", got)
	}
}

// TestSubmitNegativeOptionsRejected pins submit-time validation of
// numeric options: a negative knob is answered with an immediate 400,
// not a queued job that fails later (or, for workers, a run that the
// façade would silently expand to every core).
func TestSubmitNegativeOptionsRejected(t *testing.T) {
	srv := New(Config{Runners: 1, QueueCap: 4, CacheCap: 0})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := post(t, ts.URL+"/graphs", "text/plain", tinyHostLG(t))
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	for _, options := range []string{
		`{"min_support": -2}`,
		`{"workers": -1}`,
		`{"max_wall_clock_ms": -100}`,
		`{"epsilon": -0.5}`,
		`{"max_patterns": -7}`,
	} {
		body := fmt.Sprintf(`{"graph":%q,"miner":"spidermine","options":%s}`, sg.ID, options)
		resp := post(t, ts.URL+"/jobs", "application/json", []byte(body))
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit with options %s: status %d (%s), want 400", options, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "must not be negative") {
			t.Fatalf("submit with options %s: error %q does not name the rejection", options, raw)
		}
	}

	// The same shapes with non-negative values still pass validation.
	setTestMiner(t, nil)
	body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"min_support":2,"workers":1}}`, sg.ID)
	resp = post(t, ts.URL+"/jobs", "application/json", []byte(body))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("valid submit: status %d, want 202", resp.StatusCode)
	}
}

// TestCacheDegradeIsNotAMiss pins the degraded-lookup accounting: a
// backend-failed Get still reports "no hit" to the caller, but the
// failure lands in Degraded, not Misses — folding it into misses would
// understate the hit rate exactly while the backend is sick.
func TestCacheDegradeIsNotAMiss(t *testing.T) {
	defer fault.DisarmAll()
	c := NewCache(4, nil)
	key := CacheKey{Host: "h", Miner: "m", Options: "o"}
	c.Put(key, &mine.Result{Miner: "m"})

	fpCacheGet.Arm(fault.Spec{Kind: fault.KindError, Err: errors.New("cache read torn")})
	if _, ok := c.Get(key); ok {
		t.Fatal("degraded Get returned a hit")
	}
	fault.DisarmAll()

	if _, ok := c.Get(CacheKey{Host: "absent"}); ok {
		t.Fatal("unknown key returned a hit")
	}
	if _, ok := c.Get(key); !ok {
		t.Fatal("healthy Get missed a present key")
	}

	st := c.Stats()
	if st.Degraded != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want hits=1 misses=1 degraded=1", st)
	}

	// A cold miss over a durable backend is a miss too, though the disk
	// store wraps ErrNotFound with the key it missed.
	d, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	dc := NewCache(4, d)
	if _, ok := dc.Get(key); ok {
		t.Fatal("cold disk-backed cache returned a hit")
	}
	if st := dc.Stats(); st.Misses != 1 || st.Degraded != 0 {
		t.Fatalf("disk-backed cold miss: stats = %+v, want misses=1 degraded=0", st)
	}
}

// TestEncodeFailuresCounted pins satellite accounting for response
// encoding: a writeJSON Encode failure cannot reach the client (the
// status line is already sent), so it must at least increment
// spiderserved_http_encode_failures_total.
func TestEncodeFailuresCounted(t *testing.T) {
	srv := New(Config{Runners: 1, QueueCap: 1, CacheCap: 0})
	defer srv.Shutdown(context.Background())

	rec := httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, func() {}) // func has no JSON encoding
	if got := srv.metrics.encodeFails.Value(); got != 1 {
		t.Fatalf("encode failures = %d, want 1", got)
	}
	rec = httptest.NewRecorder()
	srv.writeJSON(rec, http.StatusOK, map[string]int{"ok": 1})
	if got := srv.metrics.encodeFails.Value(); got != 1 {
		t.Fatalf("encode failures after clean write = %d, want still 1", got)
	}
}

// TestMetricsEndpoint drives one upload + one mining job through the
// HTTP surface and checks the exposition: content type, the schema
// (every spiderserved_ family present from the first scrape), and the
// counters the traffic must have moved.
func TestMetricsEndpoint(t *testing.T) {
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		return &mine.Result{
			Miner:    "testminer",
			Patterns: []*mine.Pattern{stubPattern()},
			Stats:    mine.Stats{Stages: []mine.StageTime{{Name: "mine", Duration: time.Millisecond}}},
		}, nil
	})
	srv := New(Config{Runners: 1, QueueCap: 4, CacheCap: 4})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	lg := tinyHostLG(t)
	resp := post(t, ts.URL+"/graphs", "text/plain", lg)
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	submit := func() JobSnapshot {
		body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"min_support":1}}`, sg.ID)
		resp := post(t, ts.URL+"/jobs", "application/json", []byte(body))
		defer resp.Body.Close()
		if resp.StatusCode >= 400 {
			raw, _ := io.ReadAll(resp.Body)
			t.Fatalf("submit: %d %s", resp.StatusCode, raw)
		}
		return decodeJSON[JobSnapshot](t, resp.Body)
	}
	first := submit()
	pollTerminal(t, ts.URL, first.ID)
	second := submit() // same key: served from cache
	if !second.Cached {
		t.Fatalf("second submit not cached: %+v", second)
	}

	resp = get(t, ts.URL+"/metrics")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	expo := string(body)

	// Schema: every family is present even at zero (pre-created label
	// children included), so dashboards never see absent series.
	for _, want := range []string{
		"# TYPE spiderserved_sched_queue_wait_seconds histogram",
		"# TYPE spiderserved_run_seconds histogram",
		"# TYPE spiderserved_stage_seconds histogram",
		"# TYPE spiderserved_jobs_finished_total counter",
		"# TYPE spiderserved_rejections_total counter",
		"# TYPE spiderserved_uploads_total counter",
		"# TYPE spiderserved_upload_bytes_total counter",
		"# TYPE spiderserved_http_encode_failures_total counter",
		"# TYPE spiderserved_jobs_submitted_total counter",
		"# TYPE spiderserved_sched_queue_depth gauge",
		"# TYPE spiderserved_cache_hits_total counter",
		"# TYPE spiderserved_cache_degraded_total counter",
		"# TYPE spiderserved_store_reads_total counter",
		`spiderserved_rejections_total{cause="queue_full"} 0`,
		`spiderserved_rejections_total{cause="draining"} 0`,
		`spiderserved_rejections_total{cause="fault"} 0`,
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Movement: the traffic above must be visible.
	for _, want := range []string{
		"spiderserved_uploads_total 1",
		fmt.Sprintf("spiderserved_upload_bytes_total %d", len(lg)),
		"spiderserved_jobs_submitted_total 2",
		`spiderserved_jobs_finished_total{status="done"} 2`,
		"spiderserved_cache_hits_total 1",
		`spiderserved_run_seconds_count{miner="testminer"} 1`,
		`spiderserved_stage_seconds_count{stage="mine"} 1`,
		"spiderserved_sched_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(expo, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", expo)
	}

	// /stats folds the same registry as a JSON snapshot.
	resp = get(t, ts.URL+"/stats")
	stats := decodeJSON[map[string]any](t, resp.Body)
	resp.Body.Close()
	snap, ok := stats["metrics"].(map[string]any)
	if !ok {
		t.Fatalf("/stats has no metrics snapshot: %v", stats)
	}
	if got := snap["spiderserved_jobs_submitted_total"]; got != float64(2) {
		t.Fatalf("/stats metrics snapshot jobs_submitted = %v, want 2", got)
	}
}

// TestMetricsScrapeUnderTraffic scrapes /metrics and /stats while jobs
// are submitted, run and cancelled: scrapes must stay well-formed (parse
// as exposition lines), never panic or race (the CI race job covers the
// latter), and never deadlock. With the cache on, identical submissions
// finish as cache hits inside Submit while the scrapes read the
// scheduler through the registry's callbacks.
func TestMetricsScrapeUnderTraffic(t *testing.T) {
	for _, cacheCap := range []int{0, 8} {
		t.Run(fmt.Sprintf("cache=%d", cacheCap), func(t *testing.T) {
			scrapeUnderTraffic(t, cacheCap)
		})
	}
}

func scrapeUnderTraffic(t *testing.T, cacheCap int) {
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		// Long enough that submissions queue up behind the runners.
		select {
		case <-time.After(time.Millisecond):
			return &mine.Result{Miner: "testminer"}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	})
	srv := New(Config{Runners: 2, QueueCap: 64, CacheCap: cacheCap})
	ts := httptest.NewServer(srv)

	resp := post(t, ts.URL+"/graphs", "text/plain", tinyHostLG(t))
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()
	submit := func(seed int) (id string) {
		body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"seed":%d}}`, sg.ID, seed)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return ""
		}
		defer resp.Body.Close()
		var snap JobSnapshot
		if json.NewDecoder(resp.Body).Decode(&snap) != nil {
			return ""
		}
		return snap.ID // "" for a 503
	}

	var traffic, scrapers sync.WaitGroup
	stop := make(chan struct{})
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	traffic.Add(2)
	go func() {
		// Identical submissions: cache hits once the first has run.
		defer traffic.Done()
		for !stopped() {
			submit(0)
		}
	}()
	go func() {
		// Fresh submissions, each cancelled at once — most still queued.
		defer traffic.Done()
		for i := 1; !stopped(); i++ {
			if id := submit(i); id != "" {
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
				if resp, err := http.DefaultClient.Do(req); err == nil {
					resp.Body.Close()
				}
			}
		}
	}()
	for i := 0; i < 4; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for n := 0; n < 200; n++ {
				path := "/metrics"
				if n%2 == 1 {
					path = "/stats"
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("scrape %s: %v", path, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if path != "/metrics" {
					continue
				}
				for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
					if line == "" || strings.HasPrefix(line, "#") {
						continue
					}
					if !strings.Contains(line, " ") {
						t.Errorf("malformed exposition line %q", line)
						return
					}
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		scrapers.Wait()
		close(stop)
		traffic.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		// No cleanup: a deadlocked server would hang it too.
		t.Fatal("scrapes and submissions deadlocked")
	}
	srv.Shutdown(context.Background())
	ts.Close()
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/mine"
)

// TestRunnerPanicContainment: a miner panic becomes a failed job with
// the stack in the error while the scheduler — and its other runners —
// keep serving.
func TestRunnerPanicContainment(t *testing.T) {
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		if opts.Seed == 666 {
			panic("miner exploded mid-growth")
		}
		return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(8, nil), 2, 8)
	defer s.Shutdown(context.Background())

	bad, err := s.Submit(sg, "testminer", mine.Options{Seed: 666})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, bad)
	if snap.Status != StatusFailed {
		t.Fatalf("panicking job status %q, want failed", snap.Status)
	}
	if !strings.Contains(snap.Error, "miner exploded mid-growth") || !strings.Contains(snap.Error, "goroutine") {
		t.Errorf("panic error lost the value or the stack: %.200s", snap.Error)
	}
	var pe *PanicError
	if _, _, jerr := bad.Outcome(); !errors.As(jerr, &pe) {
		t.Errorf("panicking job error %T, want *PanicError", jerr)
	}
	if got := s.Panics(); got != 1 {
		t.Errorf("scheduler counted %d panics, want 1", got)
	}
	// The panic must not enter the cache.
	if _, hit := s.cache.Get(bad.Key); hit {
		t.Error("failed (panicked) job's key is in the result cache")
	}

	// The scheduler survives: a subsequent job on the same runners
	// completes.
	good, err := s.Submit(sg, "testminer", mine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, good); snap.Status != StatusDone {
		t.Errorf("post-panic job status %q, want done", snap.Status)
	}
}

// fakeSleeper records backoff waits without sleeping, optionally
// blocking until released — the injectable clock of the retry tests.
type fakeSleeper struct {
	mu    sync.Mutex
	waits []time.Duration
}

func (f *fakeSleeper) sleep(ctx context.Context, d time.Duration) error {
	f.mu.Lock()
	f.waits = append(f.waits, d)
	f.mu.Unlock()
	return ctx.Err()
}

func (f *fakeSleeper) recorded() []time.Duration {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]time.Duration(nil), f.waits...)
}

// TestRetryTransientThenSucceeds: transient-classed failures re-run the
// miner from scratch (same options) with exponential backoff until it
// succeeds; the retry count surfaces on the job and the events stream
// carries the attempt boundaries.
func TestRetryTransientThenSucceeds(t *testing.T) {
	var attempts int
	var optsSeen []string
	var mu sync.Mutex
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		mu.Lock()
		attempts++
		n := attempts
		o := opts
		o.OnProgress = nil // func field: compare the rest via its printed form
		optsSeen = append(optsSeen, fmt.Sprintf("%+v", o))
		mu.Unlock()
		if n <= 2 {
			return nil, mine.Transient(fmt.Errorf("attempt %d: backend hiccup", n))
		}
		return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(8, nil), 1, 4)
	defer s.Shutdown(context.Background())
	s.maxRetries = 3
	s.retryBase = 40 * time.Millisecond
	slept := &fakeSleeper{}
	s.sleep = slept.sleep

	j, err := s.Submit(sg, "testminer", mine.Options{Seed: 7, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	if snap.Status != StatusDone || snap.Error != "" {
		t.Fatalf("retried job snapshot %+v, want clean done", snap)
	}
	if snap.Retries != 2 {
		t.Errorf("snapshot retries %d, want 2", snap.Retries)
	}
	if got := s.Retries(); got != 2 {
		t.Errorf("scheduler retry counter %d, want 2", got)
	}
	// Every attempt saw identical options: a retry is a from-scratch
	// re-run, never a resume.
	mu.Lock()
	if len(optsSeen) != 3 {
		t.Fatalf("miner ran %d times, want 3", len(optsSeen))
	}
	for i, o := range optsSeen {
		if o != optsSeen[0] {
			t.Errorf("attempt %d saw different options: %+v vs %+v", i, o, optsSeen[0])
		}
	}
	mu.Unlock()
	// Backoff grows exponentially with full jitter: attempt i waits in
	// (cap/2, cap] for cap = base << i.
	waits := slept.recorded()
	if len(waits) != 2 {
		t.Fatalf("recorded %d backoff waits, want 2: %v", len(waits), waits)
	}
	for i, w := range waits {
		cap := s.retryBase << i
		if w <= cap/2 || w > cap+1 {
			t.Errorf("backoff %d = %v outside (%v, %v]", i, w, cap/2, cap+1)
		}
	}
	// The events stream marks each attempt boundary.
	events, _, _ := j.WaitEvents(context.Background(), 0)
	var retryEvents int
	for _, ev := range events {
		if ev.Stage == "retry" {
			retryEvents++
		}
	}
	if retryEvents != 2 {
		t.Errorf("stream carries %d retry events, want 2 (%+v)", retryEvents, events)
	}
}

// TestRetryClassification: permanent failures and contained panics are
// never retried; transient failures past the budget still fail.
func TestRetryClassification(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	mode := "permanent"
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		mu.Lock()
		attempts++
		mu.Unlock()
		switch mode {
		case "permanent":
			return nil, errors.New("bad input: no frequent spiders")
		case "panic":
			panic("bug")
		default:
			return nil, mine.Transient(errors.New("still flaky"))
		}
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 4)
	defer s.Shutdown(context.Background())
	s.maxRetries = 2
	s.sleep = (&fakeSleeper{}).sleep

	run := func(m string, seed int64) JobSnapshot {
		t.Helper()
		mu.Lock()
		mode, attempts = m, 0
		mu.Unlock()
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return waitTerminal(t, j)
	}

	if snap := run("permanent", 1); snap.Status != StatusFailed || snap.Retries != 0 || attempts != 1 {
		t.Errorf("permanent failure: %+v after %d attempts, want failed/0 retries/1 attempt", snap, attempts)
	}
	if snap := run("panic", 2); snap.Status != StatusFailed || snap.Retries != 0 || attempts != 1 {
		t.Errorf("panic: %+v after %d attempts, want failed/0 retries/1 attempt", snap, attempts)
	}
	snap := run("transient", 3)
	if snap.Status != StatusFailed || snap.Retries != 2 || attempts != 3 {
		t.Errorf("exhausted transient: %+v after %d attempts, want failed/2 retries/3 attempts", snap, attempts)
	}
	if !strings.Contains(snap.Error, "still flaky") {
		t.Errorf("exhausted job error %q, want the last attempt's error", snap.Error)
	}
}

// TestRetryCancelDuringBackoff: cancellation during the backoff wait
// wins over the retry budget — the job cancels promptly.
func TestRetryCancelDuringBackoff(t *testing.T) {
	inBackoff := make(chan struct{}, 4)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		return nil, mine.Transient(errors.New("flaky"))
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 4)
	defer s.Shutdown(context.Background())
	s.maxRetries = 5
	s.sleep = func(ctx context.Context, d time.Duration) error {
		inBackoff <- struct{}{}
		<-ctx.Done()
		return ctx.Err()
	}

	j, err := s.Submit(sg, "testminer", mine.Options{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-inBackoff:
	case <-time.After(5 * time.Second):
		t.Fatal("job never reached its first backoff")
	}
	j.RequestCancel()
	snap := waitTerminal(t, j)
	if snap.Status != StatusCanceled {
		t.Errorf("cancelled-in-backoff job status %q, want canceled", snap.Status)
	}
	if _, _, jerr := j.Outcome(); !errors.Is(jerr, context.Canceled) {
		t.Errorf("cancelled-in-backoff job error %v, want context.Canceled", jerr)
	}
}

// TestBackoffDelayBounds: the grown delay is capped and jitter stays in
// the (cap/2, cap] window.
func TestBackoffDelayBounds(t *testing.T) {
	s := &Scheduler{retryBase: 100 * time.Millisecond}
	for attempt := 0; attempt < 12; attempt++ {
		want := s.retryBase << attempt
		if want > maxRetryBackoff || want <= 0 {
			want = maxRetryBackoff
		}
		for i := 0; i < 50; i++ {
			d := s.backoffDelay(attempt)
			if d <= want/2 || d > want+1 {
				t.Fatalf("attempt %d: delay %v outside (%v, %v]", attempt, d, want/2, want+1)
			}
		}
	}
	// A zero base falls back to the default rather than busy-looping.
	s = &Scheduler{}
	if d := s.backoffDelay(0); d <= defaultRetryBase/2 {
		t.Errorf("zero-base delay %v, want > %v", d, defaultRetryBase/2)
	}
}

// TestClaimFailpointFailsJob: an injected claim failure lands the job in
// status failed without invoking the miner.
func TestClaimFailpointFailsJob(t *testing.T) {
	defer fault.DisarmAll()
	var invoked int
	var mu sync.Mutex
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		mu.Lock()
		invoked++
		mu.Unlock()
		return &mine.Result{Miner: "testminer"}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 2)
	defer s.Shutdown(context.Background())

	fpSchedClaim.Arm(fault.Spec{Kind: fault.KindError, Err: errors.New("dispatcher wedged")})
	j, err := s.Submit(sg, "testminer", mine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j)
	fault.DisarmAll()
	if snap.Status != StatusFailed || !strings.Contains(snap.Error, "dispatcher wedged") {
		t.Errorf("claim-faulted job %+v, want failed with injected error", snap)
	}
	mu.Lock()
	if invoked != 0 {
		t.Errorf("miner invoked %d times despite claim fault, want 0", invoked)
	}
	mu.Unlock()
}

// TestServerHealthReadinessSplit: /healthz is liveness (200 through
// overload and draining); /readyz flips to 503 with Retry-After when the
// queue crosses high water or the node drains.
func TestServerHealthReadinessSplit(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &mine.Result{Miner: "testminer"}, nil
		case <-ctx.Done():
			return &mine.Result{Miner: "testminer"}, ctx.Err()
		}
	})
	srv := New(Config{Runners: 1, QueueCap: 2, CacheCap: 0})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := ts.URL

	lg := []byte("t # tiny\nv 0 1\nv 1 2\ne 0 1\n")
	resp := post(t, base+"/graphs", "text/plain", lg)
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	expect := func(path string, want int) *http.Response {
		t.Helper()
		resp := get(t, base+path)
		if resp.StatusCode != want {
			t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
		return resp
	}

	// Idle: live and ready.
	expect("/healthz", http.StatusOK).Body.Close()
	expect("/readyz", http.StatusOK).Body.Close()

	// Saturate: one running, queue filled to high water (cap 2 → high
	// water 1, so one queued job flips readiness).
	submit := func(seed int) (JobSnapshot, *http.Response) {
		t.Helper()
		body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"seed":%d}}`, sg.ID, seed)
		resp := post(t, base+"/jobs", "application/json", []byte(body))
		var snap JobSnapshot
		if resp.StatusCode < 400 {
			snap = decodeJSON[JobSnapshot](t, resp.Body)
			resp.Body.Close()
		}
		return snap, resp
	}
	if _, resp := submit(1); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-started
	if _, resp := submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}

	expect("/healthz", http.StatusOK).Body.Close()
	notReady := expect("/readyz", http.StatusServiceUnavailable)
	if notReady.Header.Get("Retry-After") == "" {
		t.Error("unready /readyz lacks Retry-After")
	}
	body := decodeJSON[map[string]any](t, notReady.Body)
	notReady.Body.Close()
	if msg, _ := body["error"].(string); !strings.Contains(msg, "high-water") {
		t.Errorf("unready reason %v, want high-water explanation", body)
	}

	// Overfill: the queue rejects with the structured 503 contract.
	if _, resp := submit(3); resp.StatusCode != http.StatusAccepted {
		// Queue cap 2 may already be full depending on runner timing; in
		// either case the rejection must carry the backpressure contract.
		assertBackpressure(t, resp, "queue full")
	} else if _, resp := submit(4); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("fourth submit: %d, want 503", resp.StatusCode)
	} else {
		assertBackpressure(t, resp, "queue full")
	}

	// Drain: liveness holds, readiness reports draining, submissions
	// bounce with Retry-After.
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)

	resp = expect("/healthz", http.StatusOK)
	health := decodeJSON[map[string]any](t, resp.Body)
	resp.Body.Close()
	if draining, _ := health["draining"].(bool); !draining {
		t.Errorf("post-drain /healthz %v, want draining=true", health)
	}
	notReady = expect("/readyz", http.StatusServiceUnavailable)
	assertBackpressure(t, notReady, "draining")
	_, resp = submit(5)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: %d, want 503", resp.StatusCode)
	}
	assertBackpressure(t, resp, "draining")
}

// assertBackpressure checks the 503 contract: Retry-After header plus a
// structured JSON body with the same hint. Closes the body.
func assertBackpressure(t *testing.T, resp *http.Response, frag string) {
	t.Helper()
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	ra := resp.Header.Get("Retry-After")
	if ra == "" {
		t.Error("503 without Retry-After header")
	}
	body := decodeJSON[map[string]any](t, resp.Body)
	msg, _ := body["error"].(string)
	if frag != "" && !strings.Contains(msg, frag) {
		t.Errorf("503 body error %q, want %q", msg, frag)
	}
	if _, ok := body["retry_after_s"].(float64); !ok {
		t.Errorf("503 body %v lacks numeric retry_after_s", body)
	}
}

// TestServerStoreReadFaultIsBackpressure: an injected graph-store read
// failure maps to 503 + Retry-After (the graph may exist — retry), not
// 404 (which would tell clients to re-upload).
func TestServerStoreReadFaultIsBackpressure(t *testing.T) {
	defer fault.DisarmAll()
	srv := New(Config{Runners: 1, QueueCap: 2, CacheCap: 0})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp := post(t, ts.URL+"/graphs", "text/plain", []byte("t # tiny\nv 0 1\nv 1 2\ne 0 1\n"))
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	fpStoreGet.Arm(fault.Spec{Kind: fault.KindError, Err: errors.New("page checksum mismatch")})
	assertBackpressure(t, get(t, ts.URL+"/graphs/"+sg.ID), "read failed")
	jobReq := fmt.Sprintf(`{"graph":%q,"miner":"spidermine"}`, sg.ID)
	assertBackpressure(t, post(t, ts.URL+"/jobs", "application/json", []byte(jobReq)), "read failed")
	fault.DisarmAll()

	// Disarmed, the same lookups succeed — and a genuine miss is still a
	// plain 404 without backpressure headers.
	resp = get(t, ts.URL+"/graphs/"+sg.ID)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-disarm lookup %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
	resp = get(t, ts.URL+"/graphs/definitely-missing")
	if resp.StatusCode != http.StatusNotFound || resp.Header.Get("Retry-After") != "" {
		t.Errorf("miss: status %d Retry-After %q, want bare 404", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	resp.Body.Close()
}

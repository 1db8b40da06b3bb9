package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/mine"
)

// TestChaosPanicAtMinerBoundary is the headline containment proof: with
// a panic failpoint armed at the miner invocation boundary, the
// panicking job lands in status failed with a stack-bearing error, a
// concurrently running job completes done, and the daemon keeps
// answering — it never exits.
func TestChaosPanicAtMinerBoundary(t *testing.T) {
	defer fault.DisarmAll()
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		select {
		case <-time.After(2 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
	})
	srv := New(Config{Runners: 2, QueueCap: 8, CacheCap: 8})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	base := ts.URL

	resp := post(t, base+"/graphs", "text/plain", []byte("t # tiny\nv 0 1\nv 1 2\ne 0 1\n"))
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	// Exactly one invocation trips: of the two concurrent jobs, one
	// panics and one must sail through on the sibling runner.
	fpMinerInvoke.Arm(fault.Spec{Kind: fault.KindPanic, Msg: "injected chaos panic", Limit: 1})

	submit := func(seed int) string {
		t.Helper()
		body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"seed":%d}}`, sg.ID, seed)
		resp := post(t, base+"/jobs", "application/json", []byte(body))
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: %d", resp.StatusCode)
		}
		return decodeJSON[JobSnapshot](t, resp.Body).ID
	}
	idA, idB := submit(1), submit(2)
	snapA, snapB := pollTerminal(t, base, idA), pollTerminal(t, base, idB)

	failed, done := snapA, snapB
	if snapB.Status == StatusFailed {
		failed, done = snapB, snapA
	}
	if failed.Status != StatusFailed || done.Status != StatusDone {
		t.Fatalf("want one failed + one done, got %q/%q", snapA.Status, snapB.Status)
	}
	if !strings.Contains(failed.Error, "injected chaos panic") || !strings.Contains(failed.Error, "goroutine") {
		t.Errorf("contained panic lost the value or the stack: %.200s", failed.Error)
	}
	// The panicked job's result never entered the cache.
	if j, ok := srv.sched.Get(failed.ID); !ok {
		t.Fatal("failed job evicted prematurely")
	} else if _, hit := srv.sched.cache.Get(j.Key); hit {
		t.Error("panicked job's key is in the result cache")
	}

	// Daemon survives: liveness holds, the panic is counted, and the
	// exhausted failpoint lets the next job through.
	health := get(t, base+"/healthz")
	if health.StatusCode != http.StatusOK {
		t.Errorf("/healthz after panic: %d, want 200", health.StatusCode)
	}
	health.Body.Close()
	stats := get(t, base+"/stats")
	m := decodeJSON[map[string]any](t, stats.Body)
	stats.Body.Close()
	if p, _ := m["panics"].(float64); p < 1 {
		t.Errorf("/stats panics = %v, want >= 1", m["panics"])
	}
	if snap := pollTerminal(t, base, submit(3)); snap.Status != StatusDone {
		t.Errorf("post-panic job status %q, want done", snap.Status)
	}
}

// chaosOutcome is what one load-generator submission produced: an
// accepted job id, or the HTTP rejection it got instead.
type chaosOutcome struct {
	jobID     string
	status    int
	retryHdr  string
	bodyError string
	canceled  bool // we issued a DELETE for this job
}

// TestChaosSweep arms each failpoint in turn and drives the full HTTP
// surface with concurrent mixed load — submissions with unique seeds,
// client cancels, stats/readiness pollers — then drains, asserting the
// invariants that define "degrades, never corrupts": the daemon never
// exits (an escaped panic would kill the test process), every job
// reaches a terminal status, no failed job's key is in the result
// cache, rejections carry the backpressure contract, and drain
// completes.
func TestChaosSweep(t *testing.T) {
	scenarios := []struct {
		name string
		site string
		spec fault.Spec
	}{
		{"miner-panic", "serve/miner/invoke", fault.Spec{Kind: fault.KindPanic, Msg: "sweep panic", OneIn: 3}},
		{"miner-transient-flake", "serve/miner/invoke", fault.Spec{Kind: fault.KindError, Err: errors.New("sweep flake"), Transient: true, OneIn: 2}},
		{"miner-permanent-error", "serve/miner/invoke", fault.Spec{Kind: fault.KindError, Err: errors.New("sweep hard failure"), OneIn: 3}},
		{"miner-delay", "serve/miner/invoke", fault.Spec{Kind: fault.KindDelay, Delay: 2 * time.Millisecond, OneIn: 2}},
		{"claim-error", "serve/sched/claim", fault.Spec{Kind: fault.KindError, Err: errors.New("dispatcher wedged"), OneIn: 4}},
		{"store-read-error", "serve/store/get", fault.Spec{Kind: fault.KindError, Err: errors.New("page checksum mismatch"), OneIn: 3}},
		{"submit-reject", "serve/sched/submit", fault.Spec{Kind: fault.KindError, Err: errors.New("admission fuse blown"), OneIn: 3}},
		{"cache-get-error", "serve/cache/get", fault.Spec{Kind: fault.KindError, Err: errors.New("cache read torn"), OneIn: 2}},
		{"cache-put-drop", "serve/cache/put", fault.Spec{Kind: fault.KindError, Err: errors.New("cache disk full")}},
	}

	const workers, perWorker = 4, 6

	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			defer fault.DisarmAll()
			setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
				select {
				case <-time.After(time.Millisecond):
				case <-ctx.Done():
					return &mine.Result{Miner: "testminer", Truncated: mine.TruncatedCanceled}, ctx.Err()
				}
				return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
			})
			srv := New(Config{Runners: 4, QueueCap: 64, CacheCap: 32, MaxRetries: 2, RetryBase: time.Millisecond})
			ts := httptest.NewServer(srv)
			defer ts.Close()
			base := ts.URL

			resp := post(t, base+"/graphs", "text/plain", []byte("t # tiny\nv 0 1\nv 1 2\ne 0 1\n"))
			sg := decodeJSON[StoredGraph](t, resp.Body)
			resp.Body.Close()

			if err := fault.Arm(sc.site, sc.spec); err != nil {
				t.Fatal(err)
			}

			// Load generators: no t.Fatal in goroutines — record outcomes
			// and judge afterwards.
			var mu sync.Mutex
			var outcomes []chaosOutcome
			var netErrs []error
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < perWorker; i++ {
						seed := w*1000 + i + 1 // unique per submission → unique cache key
						body := fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"seed":%d}}`, sg.ID, seed)
						resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader([]byte(body)))
						if err != nil {
							mu.Lock()
							netErrs = append(netErrs, err)
							mu.Unlock()
							continue
						}
						out := chaosOutcome{status: resp.StatusCode, retryHdr: resp.Header.Get("Retry-After")}
						if resp.StatusCode == http.StatusAccepted {
							var snap JobSnapshot
							if err := json.NewDecoder(resp.Body).Decode(&snap); err == nil {
								out.jobID = snap.ID
							}
						} else {
							var e struct {
								Error string `json:"error"`
							}
							_ = json.NewDecoder(resp.Body).Decode(&e)
							out.bodyError = e.Error
						}
						resp.Body.Close()
						// Every third accepted job gets a client cancel racing
						// its run.
						if out.jobID != "" && i%3 == 2 {
							req, _ := http.NewRequest(http.MethodDelete, base+"/jobs/"+out.jobID, nil)
							if dresp, err := http.DefaultClient.Do(req); err == nil {
								dresp.Body.Close()
								out.canceled = true
							}
						}
						mu.Lock()
						outcomes = append(outcomes, out)
						mu.Unlock()
					}
				}(w)
			}
			// A poller hammering the read-only surface concurrently.
			pollDone := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-pollDone:
						return
					default:
					}
					for _, p := range []string{"/stats", "/readyz", "/healthz", "/jobs"} {
						if resp, err := http.Get(base + p); err == nil {
							resp.Body.Close()
						}
					}
				}
			}()

			loadDone := make(chan struct{})
			go func() {
				// Close pollDone once the submit workers finish.
				defer close(pollDone)
				for {
					mu.Lock()
					n := len(outcomes) + len(netErrs)
					mu.Unlock()
					if n >= workers*perWorker {
						return
					}
					select {
					case <-loadDone:
						return
					case <-time.After(5 * time.Millisecond):
					}
				}
			}()
			wg.Wait()
			close(loadDone)

			if len(netErrs) > 0 {
				t.Fatalf("transport-level failures under chaos (daemon died?): %v", netErrs[0])
			}

			// Judge the rejections: any non-202 must be the structured
			// backpressure contract (injected submit/store faults and full
			// queues all map to 503 + Retry-After), never a 5xx panic page.
			accepted := 0
			for _, out := range outcomes {
				if out.status == http.StatusAccepted {
					accepted++
					continue
				}
				if out.status != http.StatusServiceUnavailable {
					t.Errorf("rejection status %d, want 503 (body error %q)", out.status, out.bodyError)
				}
				if out.retryHdr == "" {
					t.Errorf("503 without Retry-After (body error %q)", out.bodyError)
				}
				if out.bodyError == "" {
					t.Error("503 without structured error body")
				}
			}
			if accepted == 0 && sc.site != "serve/sched/submit" && sc.site != "serve/store/get" {
				t.Fatal("no submission was accepted — load never reached the scheduler")
			}

			// Every accepted job reaches a terminal status.
			for _, out := range outcomes {
				if out.jobID == "" {
					continue
				}
				snap := pollTerminal(t, base, out.jobID)
				if !snap.Status.terminal() {
					t.Errorf("job %s stuck in %q", out.jobID, snap.Status)
				}
			}

			// No failed job's key is in the result cache (seeds are unique,
			// so each job owns its key).
			for _, j := range srv.sched.List() {
				snap := j.Snapshot()
				if !snap.Status.terminal() {
					t.Errorf("registry job %s non-terminal after load: %q", j.ID, snap.Status)
				}
				if snap.Status == StatusFailed {
					if _, hit := srv.sched.cache.Get(j.Key); hit {
						t.Errorf("failed job %s (%s) has a cached result", j.ID, snap.Error)
					}
				}
			}

			// Drain completes under the armed failpoint, and afterwards
			// every job is terminal and liveness still answers.
			drainCtx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			drained := make(chan struct{})
			go func() { srv.Shutdown(drainCtx); close(drained) }()
			select {
			case <-drained:
			case <-time.After(25 * time.Second):
				t.Fatal("drain never completed under chaos")
			}
			for _, j := range srv.sched.List() {
				if snap := j.Snapshot(); !snap.Status.terminal() {
					t.Errorf("job %s non-terminal after drain: %q", j.ID, snap.Status)
				}
			}
			health := get(t, base+"/healthz")
			if health.StatusCode != http.StatusOK {
				t.Errorf("/healthz after drain: %d, want 200", health.StatusCode)
			}
			health.Body.Close()
		})
	}
}

// TestSchedulerHardDrainDeepBacklog: a hard drain against a deep queued
// backlog cancels every queued job without dispatching it, cancels the
// in-flight runs into their committed partials, and leaves no job
// non-terminal.
func TestSchedulerHardDrainDeepBacklog(t *testing.T) {
	var started atomic.Int32
	running := make(chan struct{}, 2)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		started.Add(1)
		running <- struct{}{}
		<-ctx.Done()
		return &mine.Result{Miner: "testminer", Truncated: mine.TruncatedCanceled, Patterns: []*mine.Pattern{stubPattern()}}, ctx.Err()
	})
	sg := tinyStoredGraph(t)
	const runners, backlog = 2, 28
	s := NewScheduler(NewCache(0, nil), runners, runners+backlog)

	var inflight, queued []*Job
	for i := 0; i < runners; i++ {
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		inflight = append(inflight, j)
	}
	for i := 0; i < runners; i++ {
		select {
		case <-running:
		case <-time.After(5 * time.Second):
			t.Fatal("runners never picked up the in-flight jobs")
		}
	}
	for i := 0; i < backlog; i++ {
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: int64(100 + i)})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, j)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel() // zero drain budget: harden immediately
	s.Shutdown(expired)

	for _, j := range inflight {
		snap := j.Snapshot()
		if snap.Status != StatusCanceled {
			t.Errorf("in-flight job %s after hard drain: %q, want canceled", j.ID, snap.Status)
		}
		if res, _, jerr := j.Outcome(); res == nil || len(res.Patterns) != 1 || !errors.Is(jerr, context.Canceled) {
			t.Errorf("in-flight job %s lost its committed partials: res=%+v err=%v", j.ID, res, jerr)
		}
	}
	for _, j := range queued {
		snap := j.Snapshot()
		if snap.Status != StatusCanceled {
			t.Errorf("queued job %s after hard drain: %q, want canceled", j.ID, snap.Status)
		}
		if res, _, _ := j.Outcome(); res != nil {
			t.Errorf("never-run job %s carries a result: %+v", j.ID, res)
		}
	}
	if got := started.Load(); got != runners {
		t.Errorf("%d jobs were dispatched to the miner, want exactly %d (queued backlog must not run)", got, runners)
	}
	for _, j := range s.List() {
		if snap := j.Snapshot(); !snap.Status.terminal() {
			t.Errorf("job %s non-terminal after hard drain: %q", j.ID, snap.Status)
		}
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/mine"
)

// waitStatus polls until the job's status satisfies pred (the notify
// channel makes this prompt, not a busy-wait).
func waitTerminal(t *testing.T, j *Job) JobSnapshot {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := j.Done(ctx); err != nil {
		t.Fatalf("job %s never reached a terminal status (last: %+v)", j.ID, j.Snapshot())
	}
	return j.Snapshot()
}

// TestSchedulerFIFOBackpressureAndCancel drives the queue contract with
// a blocking stub miner: FIFO dispatch, ErrQueueFull past capacity,
// cancellation of queued jobs without running them, and cancellation of
// a running job into its committed partial result.
func TestSchedulerFIFOBackpressureAndCancel(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		started <- struct{}{}
		select {
		case <-release:
			return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
		case <-ctx.Done():
			// Façade contract: ctx error plus committed partials.
			return &mine.Result{Miner: "testminer", Truncated: mine.TruncatedCanceled}, ctx.Err()
		}
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 1)
	defer s.Shutdown(context.Background())

	j1, err := s.Submit(sg, "testminer", mine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("runner never picked up j1")
	}
	j2, err := s.Submit(sg, "testminer", mine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(sg, "testminer", mine.Options{Seed: 3}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submit: err = %v, want ErrQueueFull", err)
	}

	// Cancel the queued job: it must terminate as canceled without the
	// stub ever seeing it.
	j2.RequestCancel()
	if snap := waitTerminal(t, j2); snap.Status != StatusCanceled {
		t.Errorf("queued-then-cancelled job status %q, want %q", snap.Status, StatusCanceled)
	}

	// Cancel the running job: ctx fires, the run returns its partial
	// result with the context error.
	j1.RequestCancel()
	snap := waitTerminal(t, j1)
	if snap.Status != StatusCanceled || snap.Error == "" {
		t.Errorf("running-then-cancelled job snapshot %+v, want canceled with error", snap)
	}
	res, done, jerr := j1.Outcome()
	if !done || !errors.Is(jerr, context.Canceled) {
		t.Errorf("Outcome: err = %v done = %v, want context.Canceled", jerr, done)
	}
	if res == nil || res.Truncated != mine.TruncatedCanceled {
		t.Errorf("cancelled job lost its partial result: %+v", res)
	}
	select {
	case <-started:
		t.Error("cancelled queued job was dispatched to the miner")
	default:
	}
}

// TestSchedulerCacheHit: an identical (host, miner, options) submission
// completes instantly from the cache with the same Result, without a
// second run; changing any option misses.
func TestSchedulerCacheHit(t *testing.T) {
	var runs atomic.Int32
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		runs.Add(1)
		return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(8, nil), 1, 4)
	defer s.Shutdown(context.Background())

	opts := mine.Options{MinSupport: 2, K: 3, Seed: 1}
	j1, err := s.Submit(sg, "testminer", opts)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, j1); snap.Status != StatusDone || snap.Cached {
		t.Fatalf("first run snapshot %+v, want uncached done", snap)
	}
	j2, err := s.Submit(sg, "testminer", opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := waitTerminal(t, j2)
	if snap.Status != StatusDone || !snap.Cached {
		t.Fatalf("resubmission snapshot %+v, want cached done", snap)
	}
	r1, _, _ := j1.Outcome()
	r2, _, _ := j2.Outcome() // (res, ok, err): compare results
	if r1 != r2 {
		t.Error("cache hit returned a different Result pointer")
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("miner ran %d times, want 1", got)
	}
	diff := opts
	diff.Seed = 2
	j3, err := s.Submit(sg, "testminer", diff)
	if err != nil {
		t.Fatal(err)
	}
	if snap := waitTerminal(t, j3); snap.Cached {
		t.Error("different options hit the cache")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("miner ran %d times after option change, want 2", got)
	}
}

// TestSchedulerProgressEvents: events appended during the run reach a
// concurrent WaitEvents subscriber in order, and the stream terminates.
func TestSchedulerProgressEvents(t *testing.T) {
	release := make(chan struct{})
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		for i := 1; i <= 3; i++ {
			opts.OnProgress(mine.ProgressEvent{Miner: "testminer", Stage: "work", Iteration: i})
		}
		<-release
		return &mine.Result{Miner: "testminer"}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 2)
	defer s.Shutdown(context.Background())
	j, err := s.Submit(sg, "testminer", mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got []mine.ProgressEvent
	from := 0
	sawAll := make(chan struct{})
	sawAllClosed := false
	go func() {
		// Release the run only after the subscriber has caught up
		// mid-run, proving events stream before completion.
		<-sawAll
		close(release)
	}()
	for {
		events, done, err := j.WaitEvents(ctx, from)
		if err != nil {
			t.Fatalf("WaitEvents: %v", err)
		}
		got = append(got, events...)
		from += len(events)
		if from == 3 && !sawAllClosed {
			sawAllClosed = true
			close(sawAll)
		}
		if done {
			break
		}
	}
	if len(got) != 3 {
		t.Fatalf("streamed %d events, want 3: %+v", len(got), got)
	}
	for i, ev := range got {
		if ev.Iteration != i+1 || ev.Stage != "work" {
			t.Errorf("event %d out of order: %+v", i, ev)
		}
	}
}

// TestSchedulerGracefulDrain: Shutdown with headroom lets queued jobs
// run to completion and then refuses new submissions.
func TestSchedulerGracefulDrain(t *testing.T) {
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		return &mine.Result{Miner: "testminer"}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 4)
	var jobs []*Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	s.Shutdown(context.Background())
	for _, j := range jobs {
		if snap := j.Snapshot(); snap.Status != StatusDone {
			t.Errorf("job %s drained with status %q, want done", j.ID, snap.Status)
		}
	}
	if _, err := s.Submit(sg, "testminer", mine.Options{}); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
}

// TestSchedulerHardDrain: when the drain budget is already spent,
// Shutdown cancels the in-flight run — which completes as canceled with
// its committed partial result — and queued jobs never run.
func TestSchedulerHardDrain(t *testing.T) {
	started := make(chan struct{}, 1)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		started <- struct{}{}
		<-ctx.Done()
		return &mine.Result{Miner: "testminer", Truncated: mine.TruncatedCanceled, Patterns: []*mine.Pattern{stubPattern()}}, ctx.Err()
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 1, 2)
	j1, err := s.Submit(sg, "testminer", mine.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("runner never started j1")
	}
	j2, err := s.Submit(sg, "testminer", mine.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel() // zero drain budget: harden immediately
	s.Shutdown(expired)

	snap1 := j1.Snapshot()
	if snap1.Status != StatusCanceled {
		t.Errorf("in-flight job after hard drain: %q, want canceled", snap1.Status)
	}
	if res, _, jerr := j1.Outcome(); res == nil || len(res.Patterns) != 1 || jerr == nil {
		t.Errorf("hard drain lost the committed partials: res=%+v err=%v", res, jerr)
	}
	if snap2 := j2.Snapshot(); snap2.Status != StatusCanceled {
		t.Errorf("queued job after hard drain: %q, want canceled", snap2.Status)
	}
}

// TestSchedulerDoesNotCacheWallClockTruncation: a result truncated by
// the MaxWallClock budget is timing-dependent and must not be replayed
// from the cache; deterministic truncations (MaxPatterns) are cached.
func TestSchedulerDoesNotCacheWallClockTruncation(t *testing.T) {
	var runs atomic.Int32
	truncation := mine.TruncatedDeadline
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		runs.Add(1)
		return &mine.Result{Miner: "testminer", Truncated: truncation}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(8, nil), 1, 4)
	defer s.Shutdown(context.Background())

	opts := mine.Options{MaxWallClock: time.Millisecond, Seed: 1}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(sg, "testminer", opts)
		if err != nil {
			t.Fatal(err)
		}
		if snap := waitTerminal(t, j); snap.Status != StatusDone || snap.Cached {
			t.Fatalf("run %d: snapshot %+v, want uncached done", i, snap)
		}
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("wall-clock-truncated job ran %d times, want 2 (no caching)", got)
	}

	truncation = mine.TruncatedMaxPatterns
	opts2 := mine.Options{MaxPatterns: 1, Seed: 2}
	for i := 0; i < 2; i++ {
		j, err := s.Submit(sg, "testminer", opts2)
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
	}
	if got := runs.Load(); got != 3 {
		t.Errorf("MaxPatterns-truncated job ran %d extra times, want 1 (cached)", got-2)
	}
}

// TestSchedulerJobRetention: past the retention bound the oldest
// terminal jobs are evicted from Get/List; live jobs never are.
func TestSchedulerJobRetention(t *testing.T) {
	release := make(chan struct{})
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		if opts.Seed == 99 { // the long-running job
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return &mine.Result{Miner: "testminer"}, nil
	})
	sg := tinyStoredGraph(t)
	s := NewScheduler(NewCache(0, nil), 2, 8)
	defer s.Shutdown(context.Background())
	s.mu.Lock()
	s.retain = 2
	s.mu.Unlock()

	long, err := s.Submit(sg, "testminer", mine.Options{Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	var last *Job
	for i := 0; i < 4; i++ {
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: int64(i)})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		last = j
	}
	close(release)
	waitTerminal(t, long)

	if _, ok := s.Get(long.ID); !ok {
		t.Error("live job was evicted by retention")
	}
	if _, ok := s.Get(last.ID); !ok {
		t.Error("newest terminal job was evicted")
	}
	if n := len(s.List()); n > 3 {
		t.Errorf("registry holds %d jobs after retention sweep, want <= 3", n)
	}
}

// TestSchedulerRejectsUnknownMiner: submission validates the miner name
// up front.
func TestSchedulerRejectsUnknownMiner(t *testing.T) {
	s := NewScheduler(NewCache(0, nil), 1, 1)
	defer s.Shutdown(context.Background())
	if _, err := s.Submit(tinyStoredGraph(t), "no-such-miner", mine.Options{}); err == nil {
		t.Error("unknown miner accepted")
	}
}

// TestTerminalPathsFinishOnce: every way a job can end — completion,
// cache hit, miner failure, a panic contained at the miner boundary or
// in the runner, queued cancel, running cancel, hard-drain cancel —
// journals exactly one record and adds exactly one to
// spiderserved_jobs_finished_total{status}.
func TestTerminalPathsFinishOnce(t *testing.T) {
	defer fault.DisarmAll()
	const seedBlock, seedFail, seedPanic = 100, 101, 102
	started := make(chan struct{}, 1)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		switch opts.Seed {
		case seedBlock:
			started <- struct{}{}
			<-ctx.Done()
			return &mine.Result{Miner: "testminer", Truncated: mine.TruncatedCanceled}, ctx.Err()
		case seedFail:
			return nil, errors.New("no frequent spiders")
		case seedPanic:
			panic("miner exploded")
		}
		return &mine.Result{Miner: "testminer", Patterns: []*mine.Pattern{stubPattern()}}, nil
	})
	sg := tinyStoredGraph(t)
	submit := func(t *testing.T, s *Scheduler, seed int64) *Job {
		t.Helper()
		j, err := s.Submit(sg, "testminer", mine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	running := func(t *testing.T, s *Scheduler) *Job {
		t.Helper()
		j := submit(t, s, seedBlock)
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("runner never started the blocking job")
		}
		return j
	}
	contained := func(t *testing.T, j *Job) *Job {
		t.Helper()
		waitTerminal(t, j)
		var pe *PanicError
		if _, _, err := j.Outcome(); !errors.As(err, &pe) {
			t.Fatalf("job error %v, want a contained *PanicError", err)
		}
		return j
	}

	// Each run drives one job down its path and returns it. Whatever
	// else it submitted ends too (at the latest in the hard drain that
	// closes every case) and is held to the same once-only rule.
	cases := []struct {
		name string
		want Status
		run  func(t *testing.T, s *Scheduler) *Job
	}{
		{"completion", StatusDone, func(t *testing.T, s *Scheduler) *Job {
			j := submit(t, s, 1)
			waitTerminal(t, j)
			return j
		}},
		{"cache-hit", StatusDone, func(t *testing.T, s *Scheduler) *Job {
			waitTerminal(t, submit(t, s, 1))
			j := submit(t, s, 1)
			if snap := j.Snapshot(); !snap.Cached {
				t.Fatalf("resubmission %+v is not a cache hit", snap)
			}
			return j
		}},
		{"miner-failure", StatusFailed, func(t *testing.T, s *Scheduler) *Job {
			j := submit(t, s, seedFail)
			waitTerminal(t, j)
			return j
		}},
		{"miner-panic", StatusFailed, func(t *testing.T, s *Scheduler) *Job {
			return contained(t, submit(t, s, seedPanic))
		}},
		{"runner-panic", StatusFailed, func(t *testing.T, s *Scheduler) *Job {
			// A panic outside the miner's own boundary reaches the
			// runner's last-resort containment.
			fpSchedClaim.Arm(fault.Spec{Kind: fault.KindPanic, Msg: "claim exploded", Limit: 1})
			return contained(t, submit(t, s, 1))
		}},
		{"queued-cancel", StatusCanceled, func(t *testing.T, s *Scheduler) *Job {
			running(t, s)
			j := submit(t, s, 1)
			j.RequestCancel()
			return j
		}},
		{"running-cancel", StatusCanceled, func(t *testing.T, s *Scheduler) *Job {
			j := running(t, s)
			j.RequestCancel()
			waitTerminal(t, j)
			return j
		}},
		{"hard-drain-cancel", StatusCanceled, func(t *testing.T, s *Scheduler) *Job {
			running(t, s)
			return submit(t, s, 1) // queued when the drain below hardens
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			journal, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			defer journal.Close()
			s := NewScheduler(NewCache(8, nil), 1, 4)
			s.metrics = newMetrics()
			s.journal = journal
			j := tc.run(t, s)
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			s.Shutdown(expired) // returns once every runner has exited
			fault.DisarmAll()

			if snap := j.Snapshot(); snap.Status != tc.want {
				t.Fatalf("job %s ended %q, want %q", j.ID, snap.Status, tc.want)
			}
			recs, err := journal.Journal()
			if err != nil {
				t.Fatal(err)
			}
			journaled := map[string][]Status{}
			for _, raw := range recs {
				var r jobRecord
				if err := json.Unmarshal(raw, &r); err != nil {
					t.Fatal(err)
				}
				journaled[r.Snap.ID] = append(journaled[r.Snap.ID], r.Snap.Status)
			}
			ended := map[Status]uint64{}
			for _, job := range s.List() {
				snap := job.Snapshot()
				ended[snap.Status]++
				if got := journaled[job.ID]; len(got) != 1 || got[0] != snap.Status {
					t.Errorf("job %s ended %q but journaled %v, want exactly one %q record", job.ID, snap.Status, got, snap.Status)
				}
			}
			for _, st := range []Status{StatusDone, StatusFailed, StatusCanceled} {
				if got := s.metrics.jobsFinished.With(string(st)).Value(); got != ended[st] {
					t.Errorf("jobs_finished_total{status=%q} = %d, want %d", st, got, ended[st])
				}
			}
		})
	}
}

package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
	"repro/mine"
)

// Status is a job's lifecycle state. Transitions are monotonic:
// queued → running → {done, failed, canceled}, with queued → canceled
// for jobs cancelled (or drained) before a runner picks them up and
// queued → done for cache hits (which never enter the queue).
type Status string

const (
	StatusQueued   Status = "queued"
	StatusRunning  Status = "running"
	StatusDone     Status = "done"     // nil-error run (possibly budget-truncated)
	StatusFailed   Status = "failed"   // non-context error
	StatusCanceled Status = "canceled" // context fired; Result holds committed partials
)

// terminal reports whether a status is final.
func (s Status) terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCanceled
}

// Submission errors a serving surface maps to backpressure responses.
var (
	ErrQueueFull = errors.New("serve: job queue full")
	ErrDraining  = errors.New("serve: scheduler is draining; not accepting jobs")
)

// PanicError is a miner panic caught at the job boundary: the panic
// value plus the goroutine stack at recovery. It converts a would-be
// daemon crash into a per-job failure — the job lands in status "failed"
// with this error while every other runner keeps serving. Panics are
// permanent (a bug reproduces), so they are never retried.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic: %v\n%s", e.Value, e.Stack)
}

// Job is one scheduled mining run. All mutable state is guarded by mu;
// the identity fields (ID, Graph, Miner, Opts, Key) are immutable after
// Submit. A job recovered from the journal after a restart is born
// terminal: it has no Graph, Opts, events or Result, and it serves the
// snapshot its terminal record carried.
type Job struct {
	ID    string
	Graph *StoredGraph // nil for a recovered job
	Miner string
	Opts  mine.Options
	Key   CacheKey

	mu       sync.Mutex
	status   Status
	cached   bool
	result   *mine.Result
	err      error
	cancel   context.CancelFunc // set while running
	events   []mine.ProgressEvent
	notify   chan struct{} // closed and replaced on every state/event change
	retries  int           // transient-failure re-runs consumed so far
	created  time.Time
	started  time.Time
	finished time.Time

	// recorded is a recovered job's journaled snapshot (nil for a job
	// submitted to this process); immutable.
	recorded *JobSnapshot
	// sched is the owning scheduler, whose finish makes the job terminal.
	sched *Scheduler
}

// broadcastLocked wakes every waiter; callers hold j.mu.
func (j *Job) broadcastLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// appendEvent records one progress event and wakes streamers. It runs
// synchronously on the mining coordinator (Options.OnProgress contract),
// so it must never block.
func (j *Job) appendEvent(ev mine.ProgressEvent) {
	j.mu.Lock()
	j.events = append(j.events, ev)
	j.broadcastLocked()
	j.mu.Unlock()
}

// JobSnapshot is a point-in-time copy of a job's observable state — the
// wire form of GET /jobs/{id}.
type JobSnapshot struct {
	ID        string    `json:"id"`
	Graph     string    `json:"graph"`
	Miner     string    `json:"miner"`
	Status    Status    `json:"status"`
	Cached    bool      `json:"cached,omitempty"`
	Truncated string    `json:"truncated,omitempty"`
	Patterns  int       `json:"patterns"`
	Events    int       `json:"events"`
	Retries   int       `json:"retries,omitempty"`
	Error     string    `json:"error,omitempty"`
	Created   time.Time `json:"created"`
	Started   time.Time `json:"started,omitzero"`
	Finished  time.Time `json:"finished,omitzero"`
}

// Snapshot copies the job's observable state.
func (j *Job) Snapshot() JobSnapshot {
	if j.recorded != nil {
		return *j.recorded
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobSnapshot{
		ID: j.ID, Graph: j.Graph.ID, Miner: j.Miner,
		Status: j.status, Cached: j.cached, Events: len(j.events),
		Retries: j.retries,
		Created: j.created, Started: j.started, Finished: j.finished,
	}
	if j.result != nil {
		s.Truncated = string(j.result.Truncated)
		s.Patterns = len(j.result.Patterns)
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	return s
}

// Outcome returns the job's terminal result and run error; ok is false
// until the job reaches a terminal status. A canceled job returns its
// deterministic committed partial result together with the context
// error.
func (j *Job) Outcome() (res *mine.Result, ok bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.status.terminal() {
		return nil, false, nil
	}
	return j.result, true, j.err
}

// RequestCancel asks for the job's cancellation: a queued job is marked
// canceled without ever running; a running job's context is cancelled,
// and the run winds down to its deterministic committed partial result
// (observe completion via Done / WaitEvents — RequestCancel does not
// block). On a terminal job it is a no-op.
func (j *Job) RequestCancel() {
	if j.sched.finish(j, StatusQueued, StatusCanceled, nil, context.Canceled) {
		return
	}
	// Claimed by a runner, or already terminal: cancel the run, if any.
	j.mu.Lock()
	if j.cancel != nil {
		j.cancel()
	}
	j.mu.Unlock()
}

// WaitEvents returns the progress events from index `from` onward. When
// none are pending it blocks until the job appends one, reaches a
// terminal status, or ctx fires. done reports terminal state: the caller
// has received every event that will ever exist once done is true and
// events is empty.
func (j *Job) WaitEvents(ctx context.Context, from int) (events []mine.ProgressEvent, done bool, err error) {
	for {
		j.mu.Lock()
		if from < len(j.events) {
			events = append(events, j.events[from:]...)
			j.mu.Unlock()
			return events, false, nil
		}
		if j.status.terminal() {
			j.mu.Unlock()
			return nil, true, nil
		}
		wake := j.notify
		j.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return nil, false, ctx.Err()
		}
	}
}

// Done returns a channel-free wait: it blocks until the job is terminal
// or ctx fires.
func (j *Job) Done(ctx context.Context) error {
	for {
		j.mu.Lock()
		if j.status.terminal() {
			j.mu.Unlock()
			return nil
		}
		wake := j.notify
		j.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Scheduler runs submitted jobs on a fixed pool of runner goroutines
// over a bounded FIFO queue, consulting the result cache before
// queueing. Every run's context is a child of the scheduler's base
// context, so Shutdown can cancel all in-flight work into deterministic
// committed partials.
type Scheduler struct {
	cache *Cache
	// metrics is set by serve.New before any traffic arrives; a bare
	// NewScheduler leaves it nil and every record site no-ops.
	metrics *Metrics

	// journal, when set (serve.New over a disk), receives one appended
	// record per terminal job transition, so /jobs survives restarts.
	// Append failures are counted in journalErrs, never propagated:
	// history durability is best-effort, job execution is not.
	journal     *store.Disk
	journalErrs atomic.Int64

	queue      chan *Job
	runners    int
	queueCap   int
	highWater  int // readiness threshold: queue depth at or past it reports not-ready
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	// Retry policy for transient-classed job failures (mine.IsTransient):
	// up to maxRetries re-runs with exponential backoff from retryBase
	// (full jitter, capped). sleep is the injectable wait so tests drive
	// backoff with a fake clock; it returns ctx.Err() if ctx fires first.
	maxRetries int
	retryBase  time.Duration
	sleep      func(ctx context.Context, d time.Duration) error

	totalRetries atomic.Int64 // transient re-runs across all jobs
	totalPanics  atomic.Int64 // miner panics contained at the job boundary

	mu        sync.Mutex
	jobs      map[string]*Job
	order     []string
	nextID    int
	accepting bool
	// retain bounds how many jobs stay registered, recovered and
	// submitted alike: once exceeded, the oldest *terminal* jobs are
	// evicted (a long-running daemon must not pin every historical Result
	// and event log forever). Live jobs are never evicted.
	retain int
}

// jobRecordType versions the journal's job records: any change to the
// record's field semantics must mint a new type string, and recovery
// skips types it does not know.
const jobRecordType = "job/v1"

// jobRecord is the journal wire form of one terminal job: its final
// snapshot plus the cache key, which lets a restarted daemon re-serve
// the job's Result from the persistent result cache.
type jobRecord struct {
	Type string      `json:"type"`
	Snap JobSnapshot `json:"snapshot"`
	Key  CacheKey    `json:"key"`
}

// defaultJobRetention bounds job history when the embedder does not
// choose a limit.
const defaultJobRetention = 4096

// defaultRetryBase seeds the exponential backoff when the embedder does
// not choose one; maxRetryBackoff caps the grown delay so a long retry
// chain never stalls a runner for minutes.
const (
	defaultRetryBase = 100 * time.Millisecond
	maxRetryBackoff  = 5 * time.Second
)

// NewScheduler starts `runners` runner goroutines over a FIFO queue of
// capacity queueCap (minimums of 1 apply). Retries are off until
// configured (serve.Config.MaxRetries / the daemon's -max-retries).
func NewScheduler(cache *Cache, runners, queueCap int) *Scheduler {
	if runners < 1 {
		runners = 1
	}
	if queueCap < 1 {
		queueCap = 1
	}
	s := &Scheduler{
		cache:     cache,
		queue:     make(chan *Job, queueCap),
		runners:   runners,
		queueCap:  queueCap,
		highWater: max(1, queueCap*9/10),
		retryBase: defaultRetryBase,
		sleep:     sleepCtx,
		jobs:      make(map[string]*Job),
		accepting: true,
		retain:    defaultJobRetention,
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < runners; i++ {
		s.wg.Add(1)
		go s.runner()
	}
	return s
}

// sleepCtx waits d or until ctx fires, whichever comes first — the
// default backoff sleeper.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Submit registers a job for (graph, miner, opts). A result-cache hit
// completes the job immediately (Cached status done) without consuming a
// queue slot; otherwise the job enters the FIFO queue, or Submit fails
// with ErrQueueFull / ErrDraining. opts.OnProgress is ignored — progress
// streams through the job's event log.
func (s *Scheduler) Submit(sg *StoredGraph, minerName string, opts mine.Options) (*Job, error) {
	if sg == nil || sg.G == nil {
		return nil, fmt.Errorf("serve: Submit with nil graph")
	}
	if _, err := mine.Get(minerName); err != nil {
		return nil, err
	}
	// Admission failpoint: sits after request validation (a trip must
	// read as backpressure, not as a bad request) and before the cache
	// lookup (an admission fault rejects cache hits too).
	if err := fpSchedSubmit.Hit(); err != nil {
		return nil, err
	}
	opts.OnProgress = nil
	job := &Job{
		Graph: sg, Miner: minerName, Opts: opts,
		Key:     Key(sg.ID, minerName, opts),
		status:  StatusQueued,
		notify:  make(chan struct{}),
		created: time.Now().UTC(),
		sched:   s,
	}
	cachedRes, hit := s.cache.Get(job.Key)
	job.cached = hit

	s.mu.Lock()
	if !s.accepting {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.nextID++
	job.ID = fmt.Sprintf("j%d", s.nextID)
	if !hit {
		select {
		case s.queue <- job:
		default:
			s.mu.Unlock()
			return nil, ErrQueueFull
		}
	}
	s.jobs[job.ID] = job
	s.order = append(s.order, job.ID)
	s.evictLocked()
	s.mu.Unlock()
	if hit {
		// A cache hit never enters the queue: it finishes here, once s.mu
		// is released.
		s.finish(job, "", StatusDone, cachedRes, nil)
	}
	return job, nil
}

// finish is the only way a job becomes terminal. Under j.mu it refuses
// a job that is already terminal or, when from is set, no longer in
// status from (a queued cancel must not finish a job a runner has just
// claimed); otherwise it stamps the outcome and wakes waiters. Then,
// with no lock held, it counts the transition and journals the job:
// the metrics registry is never entered under a scheduler or job lock,
// and the journal append fsyncs. A failed append counts in journalErrs
// and costs only the job's restart-durability. Reports whether this
// call finished the job.
func (s *Scheduler) finish(j *Job, from, status Status, res *mine.Result, err error) bool {
	j.mu.Lock()
	if j.status.terminal() || (from != "" && j.status != from) {
		j.mu.Unlock()
		return false
	}
	j.status, j.result, j.err = status, res, err
	j.finished = time.Now().UTC()
	j.broadcastLocked()
	j.mu.Unlock()

	s.metrics.jobFinished(status)
	if s.journal == nil {
		return true
	}
	rec, jerr := json.Marshal(jobRecord{Type: jobRecordType, Snap: j.Snapshot(), Key: j.Key})
	if jerr == nil {
		jerr = s.journal.Append(rec)
	}
	if jerr != nil {
		s.journalErrs.Add(1)
	}
	return true
}

// recoverJournal registers every journaled job as a terminal Job that
// serves its recorded snapshot (the last record per job ID wins),
// trims the registry to the retention bound like any other terminal
// jobs, and resumes the ID sequence past the highest recovered numeric
// ID, so a restarted daemon never mints a job ID that collides with a
// recovered one. Records of unknown type — future kinds sharing the
// journal — and unparseable or non-terminal records are skipped, not
// fatal. It runs before any Submit, so it returns the recovered-job
// count.
func (s *Scheduler) recoverJournal(recs [][]byte) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, raw := range recs {
		var r jobRecord
		if err := json.Unmarshal(raw, &r); err != nil || r.Type != jobRecordType || r.Snap.ID == "" || !r.Snap.Status.terminal() {
			continue
		}
		j := &Job{
			ID: r.Snap.ID, Miner: r.Snap.Miner, Key: r.Key,
			status:   r.Snap.Status,
			notify:   make(chan struct{}),
			recorded: &r.Snap,
			sched:    s,
		}
		if r.Snap.Error != "" {
			j.err = errors.New(r.Snap.Error)
		}
		if _, ok := s.jobs[j.ID]; !ok {
			s.order = append(s.order, j.ID)
		}
		s.jobs[j.ID] = j
		var n int
		if _, err := fmt.Sscanf(j.ID, "j%d", &n); err == nil && n > s.nextID {
			s.nextID = n
		}
	}
	s.evictLocked()
	return len(s.order)
}

// JournalErrs reports failed journal appends since startup.
func (s *Scheduler) JournalErrs() int64 { return s.journalErrs.Load() }

// Snapshots returns every registered job's snapshot in registration
// order, recovered jobs first: the wire form of GET /jobs.
func (s *Scheduler) Snapshots() []JobSnapshot {
	jobs := s.List()
	out := make([]JobSnapshot, len(jobs))
	for i, j := range jobs {
		out[i] = j.Snapshot()
	}
	return out
}

// evictLocked drops the oldest terminal jobs while the registry exceeds
// the retention bound; callers hold s.mu. An evicted job disappears from
// Get/List (404 over HTTP) — in-flight streamers holding the *Job keep
// working, and the job's memory is released once they let go.
func (s *Scheduler) evictLocked() {
	if s.retain < 1 || len(s.order) <= s.retain {
		return
	}
	excess := len(s.order) - s.retain
	kept := s.order[:0]
	for i, id := range s.order {
		if excess == 0 {
			kept = append(kept, s.order[i:]...)
			break
		}
		j := s.jobs[id]
		j.mu.Lock()
		evictable := j.status.terminal()
		j.mu.Unlock()
		if evictable {
			delete(s.jobs, id)
			excess--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// Get looks a job up by id.
func (s *Scheduler) Get(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// List returns all jobs in submission order.
func (s *Scheduler) List() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id])
	}
	return out
}

// QueueDepth reports how many submitted jobs await a runner.
func (s *Scheduler) QueueDepth() int { return len(s.queue) }

// Submitted reports how many jobs Submit has accepted since startup
// (queued or completed from cache) — a monotonic tally for metrics.
func (s *Scheduler) Submitted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// QueueCap reports the FIFO queue's capacity.
func (s *Scheduler) QueueCap() int { return s.queueCap }

// Draining reports whether Shutdown has begun: submissions are rejected
// and the node should be pulled from rotation.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.accepting
}

// Ready reports whether the scheduler should receive new traffic: not
// draining, and queue depth below the high-water mark (90% of capacity,
// minimum 1) — so a load balancer stops routing here *before* submissions
// start bouncing with 503. reason is empty when ready.
func (s *Scheduler) Ready() (ready bool, reason string) {
	if s.Draining() {
		return false, "draining"
	}
	if d := len(s.queue); d >= s.highWater {
		return false, fmt.Sprintf("queue depth %d at high-water mark %d (cap %d)", d, s.highWater, s.queueCap)
	}
	return true, ""
}

// Retries reports the total transient-failure re-runs across all jobs.
func (s *Scheduler) Retries() int64 { return s.totalRetries.Load() }

// Panics reports how many miner panics were contained at the job
// boundary since startup.
func (s *Scheduler) Panics() int64 { return s.totalPanics.Load() }

// Shutdown drains the scheduler: no new submissions are accepted, queued
// jobs keep running until the queue is empty, and the call returns when
// every runner has exited. If ctx fires first, the drain hardens —
// in-flight runs are cancelled (completing as canceled with committed
// partials) and still-queued jobs are marked canceled — and Shutdown
// waits for that to finish. Safe to call more than once.
func (s *Scheduler) Shutdown(ctx context.Context) {
	s.mu.Lock()
	if s.accepting {
		s.accepting = false
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
	case <-ctx.Done():
		s.baseCancel()
		<-drained
	}
	s.baseCancel()
}

func (s *Scheduler) runner() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runContained(job)
	}
}

// runContained is the runner's last-resort containment: the miner
// invocation has its own recover (see invoke), but a panic anywhere else
// in the job path would otherwise kill the runner goroutine silently —
// shrinking capacity and leaving the job non-terminal forever. Here it
// becomes a failed job and the runner keeps draining the queue.
func (s *Scheduler) runContained(j *Job) {
	defer func() {
		if r := recover(); r != nil {
			s.totalPanics.Add(1)
			// No job is left non-terminal; a no-op if it already finished.
			s.finish(j, "", StatusFailed, nil, &PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	s.runJob(j)
}

func (s *Scheduler) runJob(j *Job) {
	if s.baseCtx.Err() != nil {
		// Hard shutdown: cancel queued work rather than run it with a dead
		// context (a no-op for a job cancelled while queued).
		s.finish(j, "", StatusCanceled, nil, context.Canceled)
		return
	}
	j.mu.Lock()
	if j.status != StatusQueued {
		// Cancelled while waiting in the queue.
		j.mu.Unlock()
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	j.cancel = cancel
	j.status = StatusRunning
	j.started = time.Now().UTC()
	s.metrics.observeQueueWait(j.started.Sub(j.created))
	j.broadcastLocked()
	j.mu.Unlock()

	m, err := mine.Get(j.Miner)
	var res *mine.Result
	if err == nil {
		if ferr := fpSchedClaim.HitCtx(ctx); ferr != nil {
			err = ferr
		} else {
			res, err = s.mineWithRetry(ctx, m, j)
		}
	}

	status := StatusDone
	switch {
	case err == nil:
		// Wall-clock-truncated results are timing-dependent (how far a
		// run gets in MaxWallClock varies with load); caching one would
		// replay a machine-state accident forever. Every other outcome —
		// complete, MaxPatterns-capped, miner-budget-stopped — is a
		// deterministic function of the cache key.
		if res == nil || res.Truncated != mine.TruncatedDeadline {
			s.cache.Put(j.Key, res)
		}
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The façade contract: a fired context returns ctx.Err() plus
		// deterministic committed partials — keep both.
		status = StatusCanceled
	default:
		// Exhausted retries, a permanent failure, or a contained panic.
		// Failed results never enter the cache (the err == nil gate
		// above) — a fault must not be replayed to future submissions.
		status = StatusFailed
	}
	var stages []mine.StageTime
	if res != nil {
		stages = res.Stats.Stages
	}
	s.metrics.recordRun(j.Miner, time.Since(j.started), stages)
	s.finish(j, "", status, res, err)
}

// mineWithRetry invokes the miner, re-running transient-classed failures
// (mine.IsTransient) up to the scheduler's retry budget with exponential
// backoff + full jitter. Every attempt re-runs the miner from scratch
// with the same Options — under the façade's determinism contract a
// retry is a fresh, equivalent computation, never a resume — so a
// successful retry is indistinguishable from a first-try success apart
// from the "retry" progress events separating the attempts' streams.
// Cancellation during an attempt or a backoff wait stops retrying
// immediately.
func (s *Scheduler) mineWithRetry(ctx context.Context, m mine.Miner, j *Job) (*mine.Result, error) {
	for attempt := 0; ; attempt++ {
		res, err := s.invoke(ctx, m, j)
		if err == nil || !mine.IsTransient(err) || attempt >= s.maxRetries {
			return res, err
		}
		if ctx.Err() != nil {
			// The job was cancelled while the attempt was failing —
			// honor the cancellation over the retry budget.
			return nil, ctx.Err()
		}
		s.totalRetries.Add(1)
		j.noteRetry(attempt + 1)
		if werr := s.sleep(ctx, s.backoffDelay(attempt)); werr != nil {
			// Cancelled mid-backoff: the failed attempt's output is not a
			// committed partial result, so the job cancels empty-handed.
			return nil, werr
		}
	}
}

// invoke runs one miner attempt inside the panic-containment boundary: a
// panicking miner becomes a *PanicError (permanent — never retried) while
// the runner, its siblings, and the daemon keep serving.
func (s *Scheduler) invoke(ctx context.Context, m mine.Miner, j *Job) (res *mine.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.totalPanics.Add(1)
			res, err = nil, &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	if ferr := fpMinerInvoke.HitCtx(ctx); ferr != nil {
		return nil, ferr
	}
	opts := j.Opts
	opts.OnProgress = j.appendEvent
	return m.Mine(ctx, mine.SingleGraph(j.Graph.G), opts)
}

// backoffDelay is the attempt-th retry wait: retryBase doubled per
// attempt, capped at maxRetryBackoff, with full jitter (uniform in
// (cap/2, cap]) so synchronized failures do not retry in lockstep.
func (s *Scheduler) backoffDelay(attempt int) time.Duration {
	base := s.retryBase
	if base <= 0 {
		base = defaultRetryBase
	}
	d := base
	for i := 0; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1)) + 1
}

// noteRetry records one transient re-run: the counter surfaces in
// JobSnapshot.Retries and /stats, and a "retry" progress event marks the
// attempt boundary in the NDJSON stream (attempt is 1-based: the first
// retry is attempt 1).
func (j *Job) noteRetry(attempt int) {
	j.mu.Lock()
	j.retries++
	j.events = append(j.events, mine.ProgressEvent{
		Miner:     j.Miner,
		Stage:     "retry",
		Iteration: attempt,
		Elapsed:   time.Since(j.started),
	})
	j.broadcastLocked()
	j.mu.Unlock()
}

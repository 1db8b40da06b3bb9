package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/mine"
)

// Config sizes a Server.
type Config struct {
	// Runners is the number of concurrent mining runners (min 1).
	Runners int
	// QueueCap bounds the FIFO job queue; a full queue rejects
	// submissions with 503 (min 1).
	QueueCap int
	// CacheCap bounds the result cache in entries; <= 0 disables
	// caching.
	CacheCap int
	// JobsCap bounds how many jobs stay registered, journal-recovered
	// ones included; past it the oldest terminal jobs are evicted
	// (default 4096).
	JobsCap int
	// MaxUploadBytes bounds a POST /graphs request body; oversized
	// uploads get 413 (default 256 MiB).
	MaxUploadBytes int64
	// MaxRetries bounds how many times a job is re-run after a
	// transient-classed failure (mine.IsTransient); 0 disables retries.
	// Each retry re-runs the miner from scratch with the same options.
	MaxRetries int
	// RetryBase seeds the exponential retry backoff (doubled per
	// attempt, jittered, capped at 5s); <= 0 means the 100ms default.
	RetryBase time.Duration
	// Backend is the durable tier (internal/store), or nil: uploaded
	// graphs and cacheable results write through to the disk, and
	// terminal job records are journaled in it, so a restart over the
	// same disk recovers all three (serve.Open). Nil means memory-only
	// serving, which writes nowhere and has nothing to recover.
	Backend *store.Disk
}

// Server is the HTTP/JSON mining service: an http.Handler exposing the
// graph store, the job scheduler, and the result cache.
//
// Endpoints:
//
//	GET    /healthz           liveness: the process is up (always 200)
//	GET    /readyz            readiness: accepting traffic (503 while draining or queue at high water)
//	GET    /stats             cache + queue + resilience statistics
//	GET    /miners            registered miners
//	POST   /graphs            upload an LG-format host; dedupes by content fingerprint
//	GET    /graphs            list registered graphs
//	GET    /graphs/{id}       one graph's metadata
//	POST   /jobs              submit {graph, miner, options}; cache hits complete instantly
//	GET    /jobs              list jobs in submission order
//	GET    /jobs/{id}         job status snapshot
//	DELETE /jobs/{id}         cancel; the run winds down to committed partials
//	GET    /jobs/{id}/events  NDJSON progress stream, terminated by a status record
//	GET    /jobs/{id}/result  terminal result (partials included for canceled jobs)
//	GET    /metrics           Prometheus text exposition of the serving metrics
type Server struct {
	store   *Store
	cache   *Cache
	sched   *Scheduler
	metrics *Metrics
	mux     *http.ServeMux
	// disk is Config.Backend: the durable tier everything above writes
	// through, nil for a memory-only server.
	disk      *store.Disk
	maxUpload int64
}

// New assembles a Server and starts its scheduler runners.
func New(cfg Config) *Server {
	if cfg.MaxUploadBytes <= 0 {
		cfg.MaxUploadBytes = 256 << 20
	}
	s := &Server{
		store:     NewStore(cfg.Backend),
		cache:     NewCache(cfg.CacheCap, cfg.Backend),
		mux:       http.NewServeMux(),
		disk:      cfg.Backend,
		maxUpload: cfg.MaxUploadBytes,
	}
	s.sched = NewScheduler(s.cache, cfg.Runners, cfg.QueueCap)
	s.sched.journal = cfg.Backend
	if cfg.JobsCap > 0 {
		s.sched.retain = cfg.JobsCap
	}
	if cfg.MaxRetries > 0 {
		s.sched.maxRetries = cfg.MaxRetries
	}
	if cfg.RetryBase > 0 {
		s.sched.retryBase = cfg.RetryBase
	}
	// Wire observability before any traffic: the scheduler records through
	// the same Metrics the handlers and /metrics scrape read.
	s.metrics = newMetrics()
	s.metrics.bind(s)
	s.sched.metrics = s.metrics
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /readyz", s.handleReady)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /miners", s.handleMiners)
	s.mux.HandleFunc("POST /graphs", s.handleUploadGraph)
	s.mux.HandleFunc("GET /graphs", s.handleListGraphs)
	s.mux.HandleFunc("GET /graphs/{id}", s.handleGetGraph)
	s.mux.HandleFunc("POST /jobs", s.handleSubmitJob)
	s.mux.HandleFunc("GET /jobs", s.handleListJobs)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleGetJob)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancelJob)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleJobEvents)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleJobResult)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// Open assembles a Server over cfg (normally with a durable
// cfg.Backend) and recovers persisted state before returning — the
// restartable-daemon entry point (cmd/spiderserved with -data-dir).
// With no Backend it degenerates to New with zero recovery.
func Open(cfg Config) (*Server, RecoveryStats, error) {
	s := New(cfg)
	rs, err := s.Recover()
	if err != nil {
		return nil, rs, err
	}
	return s, rs, nil
}

// RecoveryStats reports what a Recover pass restored from the disk.
type RecoveryStats struct {
	Graphs int // graphs re-registered (fingerprints re-verified)
	Mapped int // of those, served by mmap'ing an SPC1 image (zero decode)
	Jobs   int // terminal job records re-registered as jobs
}

// Recover rebuilds serving state from the configured disk:
// graph blobs decode and re-register under re-verified fingerprints,
// and the journal's terminal job records re-register as terminal jobs
// (resuming the job-ID sequence past them). A no-op without a
// Config.Backend. Call before serving traffic; Open does.
func (s *Server) Recover() (RecoveryStats, error) {
	var rs RecoveryStats
	if s.disk == nil {
		return rs, nil
	}
	n, mapped, err := s.store.Recover()
	rs.Graphs, rs.Mapped = n, mapped
	if err != nil {
		return rs, err
	}
	recs, err := s.disk.Journal()
	if err != nil {
		return rs, fmt.Errorf("serve: recover journal: %w", err)
	}
	rs.Jobs = s.sched.recoverJournal(recs)
	return rs, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Store exposes the graph store (for embedding and tests).
func (s *Server) Store() *Store { return s.store }

// Scheduler exposes the job scheduler (for embedding and tests).
func (s *Server) Scheduler() *Scheduler { return s.sched }

// Shutdown drains the scheduler (see Scheduler.Shutdown): graceful until
// ctx fires, then in-flight jobs are cancelled into committed partials.
// Callers should stop HTTP intake (http.Server.Shutdown) alongside.
func (s *Server) Shutdown(ctx context.Context) { s.sched.Shutdown(ctx) }

// Close releases resources held after Shutdown — today the mmap'd graph
// images recovery opened. Call only once no job can still read a mapped
// graph (i.e. after Shutdown has drained).
func (s *Server) Close() error { return s.store.Close() }

// writeJSON writes a JSON response body. An Encode failure cannot be
// reported to the client (the status line is gone by then) so it is
// counted — spiderserved_http_encode_failures_total is the only place a
// truncated response leaves a trace.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		s.metrics.encodeFailure()
	}
}

func (s *Server) writeError(w http.ResponseWriter, code int, err error) {
	s.writeJSON(w, code, map[string]string{"error": err.Error()})
}

// writeBackpressure is the 503 contract: a Retry-After header (seconds)
// plus a structured JSON body carrying the same hint, so both
// header-aware proxies and body-parsing clients can back off instead of
// hot-looping on a loaded or draining node.
func (s *Server) writeBackpressure(w http.ResponseWriter, err error, retryAfter time.Duration) {
	secs := int(retryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, http.StatusServiceUnavailable, map[string]any{
		"error":         err.Error(),
		"retry_after_s": secs,
	})
}

// retryAfterHint suggests how long a rejected client should wait before
// resubmitting: scaled by queue occupancy per runner when the queue is
// full, a flat (longer) hint while draining — a draining node wants the
// client to go elsewhere, not to come back soon.
func (s *Server) retryAfterHint(draining bool) time.Duration {
	if draining {
		return 10 * time.Second
	}
	d := time.Duration(1+s.sched.QueueDepth()/s.sched.runners) * time.Second
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// handleHealth is liveness only: the process is up and the handler
// loop responsive. It stays 200 through draining and overload —
// restart-deciders (process supervisors) key on it, and restarting a
// draining node would discard the drain.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"draining": s.sched.Draining(),
	})
}

// handleReady is readiness: whether this node should receive new
// traffic. Load balancers key on it — a draining or high-water node
// flips to 503 here (with Retry-After) before submissions start
// bouncing, so it leaves rotation ahead of client-visible rejections.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	ready, reason := s.sched.Ready()
	if !ready {
		s.writeBackpressure(w, fmt.Errorf("serve: not ready: %s", reason), s.retryAfterHint(s.sched.Draining()))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{
		"cache":          s.cache.Stats(),
		"queue_depth":    s.sched.QueueDepth(),
		"queue_cap":      s.sched.QueueCap(),
		"draining":       s.sched.Draining(),
		"retries":        s.sched.Retries(),
		"panics":         s.sched.Panics(),
		"graphs":         s.store.Len(),
		"journal_errors": s.sched.JournalErrs(),
		"persistent":     s.disk != nil,
		// The full metric registry (histogram quantiles included), for
		// clients that want one JSON snapshot instead of scraping
		// /metrics.
		"metrics": s.metrics.reg.Snapshot(),
	})
}

// handleMetrics serves the Prometheus text exposition (version 0.0.4) of
// every registered family. Scraping is lock-free on the hot counters; a
// scrape observes each atomic at its own instant, not a consistent
// cross-metric cut.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.metrics.reg.WritePrometheus(w); err != nil {
		s.metrics.encodeFailure()
	}
}

func (s *Server) handleMiners(w http.ResponseWriter, r *http.Request) {
	type minerInfo struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	var out []minerInfo
	for _, name := range mine.Names() {
		m, err := mine.Get(name)
		if err != nil {
			continue
		}
		out = append(out, minerInfo{Name: name, Description: m.Describe()})
	}
	s.writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleUploadGraph(w http.ResponseWriter, r *http.Request) {
	body := &countingReader{r: http.MaxBytesReader(w, r.Body, s.maxUpload)}
	sg, existed, err := s.store.ReadLG(body, r.URL.Query().Get("name"))
	if err != nil {
		var tooBig *http.MaxBytesError
		switch {
		case errors.As(err, &tooBig):
			s.writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("serve: upload exceeds %d bytes", s.maxUpload))
		case errors.Is(err, ErrPersist) || fault.IsInjected(err):
			// The graph parsed fine; the durable tier couldn't take it.
			// Backpressure — the client should retry the same bytes, not
			// fix them — and nothing was registered, so no half-uploaded
			// state can 404 later.
			s.writeBackpressure(w, err, s.retryAfterHint(false))
		default:
			s.writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	s.metrics.upload(body.n)
	code := http.StatusCreated
	if existed {
		code = http.StatusOK
	}
	s.writeJSON(w, code, sg)
}

// countingReader tallies bytes read through it — the accepted-upload
// byte count for spiderserved_upload_bytes_total.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.store.List())
}

func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	sg, err := s.store.Get(r.PathValue("id"))
	switch {
	case errors.Is(err, ErrUnknownGraph):
		s.writeError(w, http.StatusNotFound, err)
		return
	case err != nil:
		// A failed store read, not a miss: the graph may well exist, so
		// steer the client to retry rather than re-upload.
		s.writeBackpressure(w, fmt.Errorf("serve: graph store read failed: %w", err), s.retryAfterHint(false))
		return
	}
	s.writeJSON(w, http.StatusOK, sg)
}

// optionsJSON is the wire form of mine.Options (OnProgress has no wire
// form; progress streams via /jobs/{id}/events).
type optionsJSON struct {
	MinSupport       int     `json:"min_support,omitempty"`
	K                int     `json:"k,omitempty"`
	Dmax             int     `json:"dmax,omitempty"`
	Epsilon          float64 `json:"epsilon,omitempty"`
	Radius           int     `json:"radius,omitempty"`
	Vmin             int     `json:"vmin,omitempty"`
	Measure          string  `json:"measure,omitempty"`
	Seed             int64   `json:"seed,omitempty"`
	Workers          int     `json:"workers,omitempty"`
	MaxPatterns      int     `json:"max_patterns,omitempty"`
	MaxWallClockMS   int64   `json:"max_wall_clock_ms,omitempty"`
	MaxEmbeddings    int     `json:"max_embeddings,omitempty"`
	MaxSpiders       int     `json:"max_spiders,omitempty"`
	MaxLeavesPerStar int     `json:"max_leaves_per_star,omitempty"`
}

func (o optionsJSON) toOptions() mine.Options {
	if o.Epsilon == 0 {
		o.Epsilon = 0 // -0 is 0; JSON re-encodes it as absent
	}
	return mine.Options{
		MinSupport:       o.MinSupport,
		K:                o.K,
		Dmax:             o.Dmax,
		Epsilon:          o.Epsilon,
		Radius:           o.Radius,
		Vmin:             o.Vmin,
		Measure:          mine.Measure(o.Measure),
		Seed:             o.Seed,
		Workers:          o.Workers,
		MaxPatterns:      o.MaxPatterns,
		MaxWallClock:     time.Duration(o.MaxWallClockMS) * time.Millisecond,
		MaxEmbeddings:    o.MaxEmbeddings,
		MaxSpiders:       o.MaxSpiders,
		MaxLeavesPerStar: o.MaxLeavesPerStar,
	}
}

// validate rejects numeric options no mining run can mean. The façade is
// looser in places (mine.Options treats Workers < 0 as "use GOMAXPROCS")
// but the serving surface owns its capacity policy, so a negative knob in
// a request is a client mistake to surface as 400 at submit time — not a
// queued job that fails (or silently commandeers every core) later.
func (o optionsJSON) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"min_support", float64(o.MinSupport)},
		{"k", float64(o.K)},
		{"dmax", float64(o.Dmax)},
		{"epsilon", o.Epsilon},
		{"radius", float64(o.Radius)},
		{"vmin", float64(o.Vmin)},
		{"workers", float64(o.Workers)},
		{"max_patterns", float64(o.MaxPatterns)},
		{"max_wall_clock_ms", float64(o.MaxWallClockMS)},
		{"max_embeddings", float64(o.MaxEmbeddings)},
		{"max_spiders", float64(o.MaxSpiders)},
		{"max_leaves_per_star", float64(o.MaxLeavesPerStar)},
	} {
		if f.v < 0 {
			return fmt.Errorf("serve: invalid options: %s must not be negative (got %v)", f.name, f.v)
		}
	}
	if o.MaxWallClockMS > maxWallClockMS {
		return fmt.Errorf("serve: invalid options: max_wall_clock_ms must be at most %d (got %d)", maxWallClockMS, o.MaxWallClockMS)
	}
	return nil
}

// maxWallClockMS is the largest wall-clock budget a time.Duration holds, in
// milliseconds; a larger one would wrap.
const maxWallClockMS = math.MaxInt64 / int64(time.Millisecond)

// defaultJobMaxSpiders is the Stage I cap of a spidermine job that sets
// none, the cap of the BA-5k recipe the benchmark mines. Uncapped, Stage I
// on a scale-free host grows each level several times over the last, into
// minutes and gigabytes, and a run the daemon's memory cannot hold takes
// the daemon down with it.
const defaultJobMaxSpiders = 500_000

type jobRequest struct {
	Graph   string      `json:"graph"`
	Miner   string      `json:"miner"`
	Options optionsJSON `json:"options"`
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var req jobRequest
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("serve: bad job request: %w", err))
		return
	}
	if req.Miner == "" {
		req.Miner = "spidermine"
	}
	sg, err := s.store.Get(req.Graph)
	switch {
	case errors.Is(err, ErrUnknownGraph):
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown graph %q (upload via POST /graphs)", req.Graph))
		return
	case err != nil:
		s.writeBackpressure(w, fmt.Errorf("serve: graph store read failed: %w", err), s.retryAfterHint(false))
		return
	}
	// Surface request-validation errors (unknown measure, negative
	// numerics, unknown miner) at submit time rather than as a failed
	// job. The miner check runs here — not just inside Submit — so the
	// Submit error switch below can treat any leftover non-sentinel error
	// as the server's fault (500), never the client's.
	if err := req.Options.validate(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	opts := req.Options.toOptions()
	if err := opts.Measure.Valid(); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := mine.Get(req.Miner); err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	// The default cap goes in before Submit keys the job, so the cache key
	// and the job record name the run that happens.
	if req.Miner == "spidermine" && opts.MaxSpiders == 0 {
		opts.MaxSpiders = defaultJobMaxSpiders
	}
	job, err := s.sched.Submit(sg, req.Miner, opts)
	if err != nil {
		s.writeSubmitError(w, err)
		return
	}
	snap := job.Snapshot()
	code := http.StatusAccepted
	if snap.Cached {
		code = http.StatusOK
	}
	s.writeJSON(w, code, snap)
}

// writeSubmitError classifies a Scheduler.Submit error. The sentinels
// and injected admission faults are load-shedding — 503 with a
// Retry-After, counted by cause. Everything else reaching this point is
// a server-side defect (the handler already validated the request:
// graph, miner, measure, numeric options), so it must surface as 500 —
// a 400 here would tell the client to fix a request that was fine.
func (s *Server) writeSubmitError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.metrics.rejection(rejectQueueFull)
		s.writeBackpressure(w, err, s.retryAfterHint(false))
	case errors.Is(err, ErrDraining):
		s.metrics.rejection(rejectDraining)
		s.writeBackpressure(w, err, s.retryAfterHint(true))
	case fault.IsInjected(err):
		// An injected admission fault models transient scheduler trouble:
		// backpressure, not a client error.
		s.metrics.rejection(rejectFault)
		s.writeBackpressure(w, err, s.retryAfterHint(false))
	default:
		s.writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: submit failed: %w", err))
	}
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.sched.Snapshots())
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.sched.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return nil, false
	}
	return j, true
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		s.writeJSON(w, http.StatusOK, j.Snapshot())
	}
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	// Cancel on the job we already hold: a concurrent retention eviction
	// must not turn a legitimate DELETE into an unknown-job error.
	j.RequestCancel()
	s.writeJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleJobEvents streams the job's progress as NDJSON: one
// mine.ProgressEvent JSON object per line, in order, from the beginning
// of the job (late subscribers catch up first), terminated by a final
// status record {"status": ..., "truncated": ..., "error": ...} once the
// job is terminal.
//
// Event logs are not journaled (they are progress, not outcome), so a
// job recovered after a restart streams just its terminal status record.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	// Push the status line and headers out before the first event: a
	// queued job may not produce bytes for a while, and an unflushed
	// response looks dead to clients and proxies.
	rc.Flush()
	enc := json.NewEncoder(w)
	from := 0
	for {
		events, done, err := j.WaitEvents(r.Context(), from)
		if err != nil {
			return // client went away
		}
		for _, ev := range events {
			if err := enc.Encode(ev); err != nil {
				s.metrics.encodeFailure()
				return
			}
		}
		from += len(events)
		if done {
			snap := j.Snapshot()
			if err := enc.Encode(map[string]string{
				"status":    string(snap.Status),
				"truncated": snap.Truncated,
				"error":     snap.Error,
			}); err != nil {
				s.metrics.encodeFailure()
				return
			}
			rc.Flush()
			return
		}
		rc.Flush()
	}
}

// resultJSON is the wire form of a terminal job's result. For canceled
// jobs it carries the deterministic committed partial patterns together
// with the context error — the HTTP projection of the façade's
// budgets-truncate / contexts-error contract.
type resultJSON struct {
	Job       string          `json:"job"`
	Status    Status          `json:"status"`
	Miner     string          `json:"miner"`
	Truncated string          `json:"truncated,omitempty"`
	Error     string          `json:"error,omitempty"`
	Cached    bool            `json:"cached,omitempty"`
	Stats     mine.Stats      `json:"stats"`
	Patterns  []*mine.Pattern `json:"patterns"`
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	res, done, err := j.Outcome()
	if !done {
		s.writeError(w, http.StatusConflict, fmt.Errorf("serve: job %q is not finished (status %q)", j.ID, j.Snapshot().Status))
		return
	}
	snap := j.Snapshot()
	if j.recorded != nil {
		// A recovered job's Result did not survive the restart, so only an
		// outcome that was cacheable — and therefore persisted in the
		// result cache's durable tier — can be re-served; anything else
		// (failures, cancellations' partials, wall-clock-truncated runs) is
		// 410 Gone with a resubmit hint, never a 404 that would suggest the
		// job ID is wrong.
		if res, ok = s.cache.Get(j.Key); !ok {
			s.writeError(w, http.StatusGone, fmt.Errorf("serve: job %q finished %q before a restart and its result was not retained; resubmit to recompute", j.ID, snap.Status))
			return
		}
		snap.Cached = true
	}
	out := resultJSON{
		Job: j.ID, Status: snap.Status, Miner: j.Miner,
		Truncated: snap.Truncated, Cached: snap.Cached,
	}
	if err != nil {
		out.Error = err.Error()
	}
	if res != nil {
		out.Stats = res.Stats
		out.Patterns = res.Patterns
	}
	if out.Patterns == nil {
		out.Patterns = []*mine.Pattern{}
	}
	s.writeJSON(w, http.StatusOK, out)
}

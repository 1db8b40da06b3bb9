package serve

import (
	"time"

	"repro/internal/obs"
	"repro/mine"
)

// Rejection causes for the spiderserved_rejections_total counter. The
// set is closed (bounded label cardinality): every load-shedding path
// maps to exactly one.
const (
	rejectQueueFull = "queue_full"
	rejectDraining  = "draining"
	rejectFault     = "fault"
)

// Metrics is the serving stack's observability surface: one obs
// registry per Server, exposed in Prometheus text form at GET /metrics
// and as a JSON snapshot inside GET /stats.
//
// Two recording shapes, chosen per metric:
//
//   - Event-time metrics (histograms, rejection/upload/encode counters)
//     are recorded where the event happens; record sites are nil-safe
//     (a bare NewScheduler without a Server has no Metrics and records
//     nothing) and allocation-free (the internal/obs contract).
//   - Scrape-time metrics (cache hits, store reads, retry/panic totals,
//     queue occupancy) read the owning component's own counters via
//     CounterFunc/GaugeFunc, so the component stays the single source
//     of truth — /stats and /metrics can never drift apart.
type Metrics struct {
	reg *obs.Registry

	queueWait    *obs.Histogram
	runSeconds   *obs.HistogramVec
	stageSeconds *obs.HistogramVec
	jobsFinished *obs.CounterVec
	rejections   *obs.CounterVec
	uploads      *obs.Counter
	uploadBytes  *obs.Counter
	encodeFails  *obs.Counter
}

// newMetrics builds the event-time metric families. Scrape-time
// families join in bind, once the components they read exist.
func newMetrics() *Metrics {
	reg := obs.NewRegistry()
	m := &Metrics{
		reg: reg,
		queueWait: reg.Histogram("spiderserved_sched_queue_wait_seconds",
			"time a job waited in the FIFO queue before a runner claimed it",
			obs.SecondsScale, obs.DurationBuckets()),
		runSeconds: reg.HistogramVec("spiderserved_run_seconds",
			"mining run wall-clock from claim to terminal status, by miner",
			"miner", obs.SecondsScale, obs.DurationBuckets()),
		stageSeconds: reg.HistogramVec("spiderserved_stage_seconds",
			"per-stage mining wall-clock (mine.Stats.Stages), by stage",
			"stage", obs.SecondsScale, obs.DurationBuckets()),
		jobsFinished: reg.CounterVec("spiderserved_jobs_finished_total",
			"jobs reaching a terminal status, by status",
			"status"),
		rejections: reg.CounterVec("spiderserved_rejections_total",
			"job submissions rejected with 503, by cause",
			"cause"),
		uploads: reg.Counter("spiderserved_uploads_total",
			"graph uploads accepted (including content-dedupe re-uploads)"),
		uploadBytes: reg.Counter("spiderserved_upload_bytes_total",
			"bytes of accepted graph-upload request bodies"),
		encodeFails: reg.Counter("spiderserved_http_encode_failures_total",
			"JSON response encode/stream-write failures (truncated responses)"),
	}
	// Pre-create the closed label sets so every scrape shows the full
	// schema (a zero series is a statement; an absent one is a mystery).
	for _, status := range []Status{StatusDone, StatusFailed, StatusCanceled} {
		m.jobsFinished.With(string(status))
	}
	for _, cause := range []string{rejectQueueFull, rejectDraining, rejectFault} {
		m.rejections.With(cause)
	}
	return m
}

// bind registers the scrape-time families over the Server's components.
func (m *Metrics) bind(s *Server) {
	reg, sched, cache, store := m.reg, s.sched, s.cache, s.store
	reg.CounterFunc("spiderserved_jobs_submitted_total",
		"jobs accepted by Submit (queued or served from cache)",
		func() uint64 { return uint64(sched.Submitted()) })
	reg.GaugeFunc("spiderserved_sched_queue_depth",
		"jobs waiting for a runner",
		func() float64 { return float64(sched.QueueDepth()) })
	reg.GaugeFunc("spiderserved_sched_queue_cap",
		"FIFO queue capacity",
		func() float64 { return float64(sched.QueueCap()) })
	reg.GaugeFunc("spiderserved_sched_draining",
		"1 while the scheduler is draining (rejecting submissions), else 0",
		func() float64 {
			if sched.Draining() {
				return 1
			}
			return 0
		})
	reg.CounterFunc("spiderserved_sched_retries_total",
		"transient-failure re-runs across all jobs",
		func() uint64 { return uint64(sched.Retries()) })
	reg.CounterFunc("spiderserved_sched_panics_total",
		"miner panics contained at the job boundary",
		func() uint64 { return uint64(sched.Panics()) })

	reg.CounterFunc("spiderserved_cache_hits_total",
		"result-cache hits", func() uint64 { return cache.Stats().Hits })
	reg.CounterFunc("spiderserved_cache_misses_total",
		"result-cache misses", func() uint64 { return cache.Stats().Misses })
	reg.CounterFunc("spiderserved_cache_degraded_total",
		"result-cache lookups degraded to a miss by a backend fault (not counted as misses)",
		func() uint64 { return cache.Stats().Degraded })
	reg.CounterFunc("spiderserved_cache_evictions_total",
		"result-cache LRU evictions", func() uint64 { return cache.Stats().Evictions })
	reg.GaugeFunc("spiderserved_cache_entries",
		"result-cache occupancy", func() float64 { return float64(cache.Stats().Entries) })

	reg.CounterFunc("spiderserved_store_reads_total",
		"graph-store lookups", func() uint64 { return store.reads.Value() })
	reg.CounterFunc("spiderserved_store_misses_total",
		"graph-store lookups for unknown fingerprints", func() uint64 { return store.misses.Value() })
	reg.CounterFunc("spiderserved_store_read_faults_total",
		"graph-store reads failed by a backend fault", func() uint64 { return store.faults.Value() })
	reg.GaugeFunc("spiderserved_store_graphs",
		"registered host graphs", func() float64 { return float64(store.Len()) })

	// Storage-engine families. Registered unconditionally — a nil disk
	// reports zeros — so the /metrics schema does not depend on whether
	// the daemon runs with -data-dir.
	disk := s.disk
	reg.CounterFunc("spiderserved_store_disk_bytes_written_total",
		"bytes appended to the storage backend's log (headers + payloads)",
		func() uint64 { return disk.Stats().BytesWritten })
	reg.CounterFunc("spiderserved_store_disk_bytes_read_total",
		"payload bytes read back from the storage backend",
		func() uint64 { return disk.Stats().BytesRead })
	reg.CounterFunc("spiderserved_store_disk_fsyncs_total",
		"fsyncs issued by the storage backend",
		func() uint64 { return disk.Stats().Fsyncs })
	reg.CounterFunc("spiderserved_store_disk_recovery_truncations_total",
		"torn log tails truncated by backend recovery scans",
		func() uint64 { return disk.Stats().RecoveryTruncations })

	reg.CounterFunc("spiderserved_cache_backend_hits_total",
		"result-cache hits served from the durable tier (and promoted to L1)",
		func() uint64 { return cache.Stats().BackendHits })
	reg.CounterFunc("spiderserved_cache_persist_drops_total",
		"results cached in memory whose durable write-through failed",
		func() uint64 { return cache.Stats().PersistDrops })
	reg.CounterFunc("spiderserved_sched_journal_errors_total",
		"terminal-job journal appends that failed",
		func() uint64 { return uint64(sched.JournalErrs()) })
}

// observeQueueWait records queue dwell time for a claimed job.
func (m *Metrics) observeQueueWait(d time.Duration) {
	if m == nil {
		return
	}
	m.queueWait.Observe(int64(d))
}

// recordRun records one finished run: wall-clock by miner and the
// per-stage breakdown the engine reported.
func (m *Metrics) recordRun(miner string, run time.Duration, stages []mine.StageTime) {
	if m == nil {
		return
	}
	m.runSeconds.With(miner).Observe(int64(run))
	for _, st := range stages {
		m.stageSeconds.With(st.Name).Observe(int64(st.Duration))
	}
}

// jobFinished counts one terminal transition (Scheduler.finish).
func (m *Metrics) jobFinished(status Status) {
	if m == nil {
		return
	}
	m.jobsFinished.With(string(status)).Inc()
}

// rejection records one load-shedding 503 by cause.
func (m *Metrics) rejection(cause string) {
	if m == nil {
		return
	}
	m.rejections.With(cause).Inc()
}

// upload records one accepted graph upload of n body bytes.
func (m *Metrics) upload(n int64) {
	if m == nil {
		return
	}
	m.uploads.Inc()
	if n > 0 {
		m.uploadBytes.Add(uint64(n))
	}
}

// encodeFailure records a JSON encode or stream-write failure — the
// response the client got was truncated or never arrived.
func (m *Metrics) encodeFailure() {
	if m == nil {
		return
	}
	m.encodeFails.Inc()
}

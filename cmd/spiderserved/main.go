// Command spiderserved is the long-running mining service: an HTTP/JSON
// API over the mine façade, backed by a content-fingerprinted graph
// store, a bounded FIFO job scheduler, and an LRU result cache (see
// internal/serve for the endpoint reference).
//
// Usage:
//
//	spiderserved -addr :8471 -runners 4 -queue 64 -cache 256
//	spiderserved -data-dir /var/lib/spiderserved   # durable, restartable
//
// Lifecycle:
//
//	curl -X POST --data-binary @host.lg localhost:8471/graphs
//	curl -X POST -d '{"graph":"<id>","miner":"spidermine","options":{"min_support":2,"k":10}}' localhost:8471/jobs
//	curl localhost:8471/jobs/j1/events        # NDJSON progress stream
//	curl localhost:8471/jobs/j1/result        # terminal result
//	curl -X DELETE localhost:8471/jobs/j1     # cancel -> committed partials
//
// On SIGTERM/SIGINT the daemon drains gracefully: HTTP intake stops,
// queued and running jobs finish, and after -drain the remaining runs
// are cancelled into their deterministic committed partials before the
// process exits.
//
// Failure semantics (see README §Failure semantics): a panicking miner
// is contained at the job boundary — the job fails with the stack, the
// daemon keeps serving; transient-classed job failures are retried up to
// -max-retries times with exponential backoff from -retry-base; full
// queues and draining reject with 503 + Retry-After; GET /healthz is
// liveness, GET /readyz readiness. Failpoints can be armed for chaos
// drills via the SPIDERSERVED_FAULTS environment variable (the
// internal/fault DSL, e.g. 'serve/cache/put=error(disk full),3').
//
// Persistence (see README §Persistence): with -data-dir the daemon
// opens a durable storage engine (internal/store) in that directory —
// uploaded graphs, cacheable mining results, and terminal job records
// survive restarts, recovered (with torn-tail repair) before the
// listener opens. Without -data-dir everything is in-memory, exactly as
// before the flag existed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/fault"
	"repro/internal/serve"
	"repro/internal/store"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		addr     = flag.String("addr", ":8471", "listen address")
		runners  = flag.Int("runners", runtime.NumCPU(), "concurrent mining runners")
		queueCap = flag.Int("queue", 64, "job queue capacity (full queue returns 503)")
		cacheCap = flag.Int("cache", 256, "result cache capacity in entries (0 disables)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled into committed partials")
		retries  = flag.Int("max-retries", 2, "max re-runs of a job after a transient failure (0 disables retries)")
		retryB   = flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff; doubles per attempt (jittered, capped at 5s)")
		debug    = flag.String("debug-addr", "", "optional net/http/pprof listen address (e.g. localhost:6060); empty disables")
		dataDir  = flag.String("data-dir", "", "directory for the durable storage engine; empty serves in-memory only")
	)
	flag.Parse()

	if dsl := os.Getenv("SPIDERSERVED_FAULTS"); dsl != "" {
		if err := fault.ArmAll(dsl); err != nil {
			fmt.Fprintf(os.Stderr, "spiderserved: SPIDERSERVED_FAULTS: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spiderserved: CHAOS MODE — failpoints armed from SPIDERSERVED_FAULTS: %s\n", dsl)
	}

	// The profiler gets its own listener so pprof is never exposed on the
	// service port: the API address can face a network, the debug address
	// stays on loopback (or off, the default).
	if *debug != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debug)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spiderserved: -debug-addr: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "spiderserved: pprof on http://%s/debug/pprof/\n", dln.Addr())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				fmt.Fprintf(os.Stderr, "spiderserved: pprof server: %v\n", err)
			}
		}()
	}

	cfg := serve.Config{
		Runners: *runners, QueueCap: *queueCap, CacheCap: *cacheCap,
		MaxRetries: *retries, RetryBase: *retryB,
	}
	var backend *store.Disk
	if *dataDir != "" {
		var err error
		backend, err = store.OpenDisk(*dataDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "spiderserved: -data-dir: %v\n", err)
			return 1
		}
		cfg.Backend = backend
	}
	srv, recovered, err := serve.Open(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiderserved: recovery: %v\n", err)
		return 1
	}
	if backend != nil {
		st := backend.Stats()
		fmt.Fprintf(os.Stderr, "spiderserved: data-dir %s: recovered %d graphs (%d mmap'd), %d job records (log truncations: %d)\n",
			*dataDir, recovered.Graphs, recovered.Mapped, recovered.Jobs, st.RecoveryTruncations)
	}
	httpSrv := &http.Server{Handler: srv}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spiderserved: %v\n", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "spiderserved: listening on %s (runners=%d queue=%d cache=%d)\n",
		ln.Addr(), *runners, *queueCap, *cacheCap)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "spiderserved: %v\n", err)
		return 1
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintf(os.Stderr, "spiderserved: draining (budget %v)\n", *drain)

	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	// Drain the scheduler first: jobs finish (or are cancelled into
	// committed partials at the deadline), which also unblocks event
	// streams, so the HTTP shutdown after it completes promptly.
	srv.Shutdown(drainCtx)
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "spiderserved: http shutdown: %v\n", err)
	}
	httpSrv.Close()
	// Close the storage engine after the drain: every terminal job has
	// journaled by now, and Close writes the sidecar index that makes the
	// next start's recovery O(1) instead of a full log scan.
	// Unmap recovered graph images before the backend goes away; the
	// drain above guarantees no job still reads them.
	if err := srv.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "spiderserved: unmap: %v\n", err)
	}
	if backend != nil {
		if err := backend.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "spiderserved: store close: %v\n", err)
		}
	}
	fmt.Fprintln(os.Stderr, "spiderserved: drained")
	return 0
}

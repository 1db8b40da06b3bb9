package store

import "repro/internal/fault"

// The disk-backend failpoint catalog, in the style of the serve catalog
// (internal/serve/fault.go): every named injection site of the durable
// tier, declared in one place. Each site documents its observable
// failure semantics as seen from the serving stack above — the chaos
// suite (internal/serve/persist_test.go) asserts injected I/O faults
// surface as 503 backpressure or a degraded cache, never as 404 or
// daemon death.
//
// Sites are disarmed no-ops in production (one atomic load; see
// internal/fault). Arm them from tests via fault.Arm, or in a running
// daemon via the SPIDERSERVED_FAULTS environment DSL.
var (
	// store/disk/put: every durable write — blob puts and journal
	// appends. An error trip fails the mutation before any bytes
	// hit the log: an upload surfaces it as 503 (the graph is not
	// registered — clients retry), a result-cache store drops silently
	// (the result is still served), a job-journal append is counted and
	// the job still reaches its terminal status.
	fpDiskPut = fault.New("store/disk/put")

	// store/disk/get: every durable read — blob gets and journal
	// replays. An error trip fails the read; the result cache degrades
	// it to a miss (the job re-mines; never 404, never an error to the
	// client), and a recovery-time trip fails Open loudly rather than
	// serving a partial view.
	fpDiskGet = fault.New("store/disk/get")

	// store/disk/sync: the fsync after a framed append. An error trip
	// fails the mutation after the write but before the commit — the
	// committed size does not advance, so the torn bytes are invisible,
	// exactly like a crash mid-append. Surfaces like store/disk/put.
	fpDiskSync = fault.New("store/disk/sync")
)

// Package store is the durable tier under the serving stack: Disk, a
// content-addressed blob store plus a small append-only metadata
// journal, kept in a pure-Go append-only CRC-framed segment log with a
// sidecar index and a torn-tail-truncating recovery scan, and a
// whole-file side tier for mmap'able artifacts. A server without a data
// directory has no durable tier at all: it holds a nil *Disk and writes
// nowhere.
//
// The split mirrors the design argument of the LSST multi-petabyte
// database and provenance-based data skipping (see PAPERS.md): keep a
// durable, content-addressed storage tier separate from the serving
// tier, so computed artifacts — uploaded host graphs, mined results,
// terminal job records — survive restarts and equivalent requests never
// recompute.
//
// Keys are opaque strings chosen by the caller; the serving layer uses
// content fingerprints (internal/serve.FingerprintGraph), which is what
// makes the store content-addressed: a blob's key is a collision-
// resistant function of its content, so re-verifying the fingerprint on
// load detects corruption end to end.
//
// Like internal/obs, the package has zero dependencies outside the
// standard library (and internal/fault for chaos injection sites).
package store

import "errors"

// ErrNotFound reports a blob lookup miss: no blob is stored under that
// (kind, key). Disk wraps it with the kind and key; any other Get error
// is an I/O failure — the blob may well exist, so callers must treat it
// as retryable, never as "not found".
var ErrNotFound = errors.New("store: not found")

// Stats is a point-in-time snapshot of a Disk's I/O counters. All
// fields are monotonic over the Disk's lifetime except the Recovered*
// pair, which is set once by the opening recovery scan. The serving
// layer exposes them as spiderserved_store_disk_* metric families; a
// nil *Disk (a server with no durable tier) reports zero Stats, so the
// metrics schema does not depend on whether a disk is attached.
type Stats struct {
	// Puts / Gets / JournalAppends count successful operations.
	Puts           uint64 `json:"puts"`
	Gets           uint64 `json:"gets"`
	JournalAppends uint64 `json:"journal_appends"`
	// FilePuts counts whole-file artifacts written through PutFile.
	FilePuts uint64 `json:"file_puts"`
	// BytesWritten / BytesRead count framed log bytes (headers included)
	// and whole-file bytes written, and framed log bytes read back.
	BytesWritten uint64 `json:"bytes_written"`
	BytesRead    uint64 `json:"bytes_read"`
	// Fsyncs counts file syncs.
	Fsyncs uint64 `json:"fsyncs"`
	// RecoveryTruncations counts torn log tails truncated by the opening
	// recovery scan: each is one crash caught mid-write.
	RecoveryTruncations uint64 `json:"recovery_truncations"`
	// RecoveredBlobs / RecoveredJournalRecords report what the opening
	// scan (or sidecar index load) restored.
	RecoveredBlobs          uint64 `json:"recovered_blobs"`
	RecoveredJournalRecords uint64 `json:"recovered_journal_records"`
}

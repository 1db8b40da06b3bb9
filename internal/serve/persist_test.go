package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/store"
	"repro/mine"
)

// persistHostLG renders a small host with repeated structure — four
// copies of a 4-vertex motif — so a real spidermine run over it yields
// patterns quickly (the restart tests re-mine nothing; speed matters).
func persistHostLG(t *testing.T) []byte {
	t.Helper()
	b := mine.NewGraphBuilder(16, 16)
	for c := 0; c < 4; c++ {
		base := b.AddVertex(1)
		l1 := b.AddVertex(2)
		l2 := b.AddVertex(2)
		l3 := b.AddVertex(3)
		b.AddEdge(base, l1)
		b.AddEdge(base, l2)
		b.AddEdge(base, l3)
		b.AddEdge(l1, l3)
	}
	var buf bytes.Buffer
	if err := b.Build().WriteLG(&buf, "persist-host"); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// openDiskServer opens (or reopens) a disk-backed server over dir and
// returns it with its recovery stats and backend.
func openDiskServer(t *testing.T, dir string) (*Server, RecoveryStats, *store.Disk) {
	t.Helper()
	backend, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, rs, err := Open(Config{Runners: 2, QueueCap: 8, CacheCap: 16, Backend: backend})
	if err != nil {
		t.Fatal(err)
	}
	return srv, rs, backend
}

const persistOpts = `{"min_support":2,"k":4,"dmax":4,"seed":7}`

// TestRestartDurability is the storage engine's end-to-end contract:
// upload a graph, mine it, restart the daemon on the same data
// directory, and find the graph still registered, the job in /jobs
// history with its terminal record, the result re-servable, and an
// identical resubmission answered from the persistent cache without
// re-mining.
func TestRestartDurability(t *testing.T) {
	dir := t.TempDir()

	// --- first life: upload, mine, shut down cleanly ---
	srv, rs, backend := openDiskServer(t, dir)
	if rs.Graphs != 0 || rs.Jobs != 0 {
		t.Fatalf("fresh data dir recovered %+v, want nothing", rs)
	}
	ts := httptest.NewServer(srv)
	base := ts.URL

	lg := persistHostLG(t)
	resp := post(t, base+"/graphs", "text/plain", lg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()

	snap, code := submitJob(t, base, sg.ID, persistOpts)
	if code != http.StatusAccepted || snap.Cached {
		t.Fatalf("first submit: code %d snap %+v, want uncached 202", code, snap)
	}
	fin := pollTerminal(t, base, snap.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job finished %q: %+v", fin.Status, fin)
	}
	res1 := fetchResult(t, base, snap.ID, http.StatusOK)
	if len(res1.Patterns) == 0 {
		t.Fatal("run produced no patterns; the durability assertions need some")
	}
	pats1, _ := json.Marshal(res1.Patterns)

	srv.Shutdown(context.Background())
	ts.Close()
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	// --- second life: same dir, everything recovered ---
	srv2, rs2, backend2 := openDiskServer(t, dir)
	defer backend2.Close()
	if rs2.Graphs != 1 || rs2.Jobs < 1 {
		t.Fatalf("recovered %+v, want 1 graph and >=1 job record", rs2)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	base = ts2.URL

	// The graph is listed under the same content fingerprint, with its
	// advisory name, and is mineable (GET by id works).
	resp = get(t, base+"/graphs")
	graphs := decodeJSON[[]StoredGraph](t, resp.Body)
	resp.Body.Close()
	if len(graphs) != 1 || graphs[0].ID != sg.ID || graphs[0].Name != "persist-host" {
		t.Fatalf("recovered graph listing %+v, want [%s persist-host]", graphs, sg.ID)
	}

	// /jobs still shows the pre-restart job as a terminal record.
	resp = get(t, base+"/jobs")
	jobs := decodeJSON[[]JobSnapshot](t, resp.Body)
	resp.Body.Close()
	found := false
	for _, j := range jobs {
		if j.ID == snap.ID {
			found = true
			if j.Status != StatusDone || j.Graph != sg.ID {
				t.Fatalf("recovered job record %+v", j)
			}
		}
	}
	if !found {
		t.Fatalf("/jobs after restart %+v does not include %s", jobs, snap.ID)
	}

	// GET /jobs/{id} serves the history snapshot; its result re-serves
	// byte-identical patterns out of the persistent cache.
	resp = get(t, base+"/jobs/"+snap.ID)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET recovered job status %d", resp.StatusCode)
	}
	resp.Body.Close()
	res2 := fetchResult(t, base, snap.ID, http.StatusOK)
	if res2.Status != StatusDone || !res2.Cached {
		t.Fatalf("recovered result %+v, want cached done", res2)
	}
	pats2, _ := json.Marshal(res2.Patterns)
	if !bytes.Equal(pats1, pats2) {
		t.Error("recovered result patterns differ from the original run")
	}

	// The events stream for a recovered job replays its terminal status
	// record (the stream contract holds across restarts).
	resp = get(t, base+"/jobs/"+snap.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered events status %d", resp.StatusCode)
	}
	var final map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if final["status"] != string(StatusDone) {
		t.Fatalf("recovered events terminal record %v", final)
	}

	// Cancelling a recovered (terminal) job is an accepted no-op.
	resp = del(t, base+"/jobs/"+snap.ID)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE recovered job status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// An identical resubmission is a cache hit — no re-mine — under a
	// fresh job ID that does not collide with recovered history.
	snap2, code2 := submitJob(t, base, sg.ID, persistOpts)
	if code2 != http.StatusOK || !snap2.Cached {
		t.Fatalf("resubmit after restart: code %d snap %+v, want cached 200", code2, snap2)
	}
	if snap2.ID == snap.ID {
		t.Fatalf("restarted daemon reused job ID %s", snap.ID)
	}
	res3 := fetchResult(t, base, snap2.ID, http.StatusOK)
	pats3, _ := json.Marshal(res3.Patterns)
	if !bytes.Equal(pats1, pats3) {
		t.Error("post-restart cache hit returned different patterns")
	}
}

// TestRestartIDSequenceAndGone covers the uncached leftovers: a job
// whose result was never persisted (here: failed) survives as a history
// record whose /result is 410 Gone with a resubmit hint — never a 404
// that would suggest the job ID is wrong.
func TestRestartIDSequenceAndGone(t *testing.T) {
	dir := t.TempDir()
	srv, _, backend := openDiskServer(t, dir)
	ts := httptest.NewServer(srv)

	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		return nil, fmt.Errorf("boom: miner exploded")
	})
	resp := post(t, ts.URL+"/graphs", "text/plain", tinyHostLG(t))
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()
	resp = post(t, ts.URL+"/jobs", "application/json",
		[]byte(fmt.Sprintf(`{"graph":%q,"miner":"testminer"}`, sg.ID)))
	snap := decodeJSON[JobSnapshot](t, resp.Body)
	resp.Body.Close()
	fin := pollTerminal(t, ts.URL, snap.ID)
	if fin.Status != StatusFailed {
		t.Fatalf("job status %q, want failed", fin.Status)
	}

	srv.Shutdown(context.Background())
	ts.Close()
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, rs2, backend2 := openDiskServer(t, dir)
	defer backend2.Close()
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Shutdown(context.Background())
	if rs2.Jobs != 1 {
		t.Fatalf("recovered %d job records, want 1", rs2.Jobs)
	}

	// The failed job's record survived, error included.
	resp = get(t, ts2.URL+"/jobs/"+snap.ID)
	rec := decodeJSON[JobSnapshot](t, resp.Body)
	resp.Body.Close()
	if rec.Status != StatusFailed || !strings.Contains(rec.Error, "boom") {
		t.Fatalf("recovered failed-job record %+v", rec)
	}

	// Its result was never cacheable, so it is gone — 410, not 404.
	resp = get(t, ts2.URL+"/jobs/"+snap.ID+"/result")
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone || !strings.Contains(string(raw), "resubmit") {
		t.Fatalf("recovered failed-job result: %d %s, want 410 + resubmit hint", resp.StatusCode, raw)
	}
}

// TestRestartRecoveredJobsShareJobsCap: recovered jobs are ordinary
// terminal jobs under the one JobsCap bound. Recovery keeps the newest
// JobsCap records, and a submission past the cap evicts the oldest
// terminal job — here a recovered one — from /jobs and GET /jobs/{id}.
func TestRestartRecoveredJobsShareJobsCap(t *testing.T) {
	setTestMiner(t, nil)
	dir := t.TempDir()
	open := func(jobsCap int) (*Server, RecoveryStats, *store.Disk) {
		t.Helper()
		backend, err := store.OpenDisk(dir)
		if err != nil {
			t.Fatal(err)
		}
		srv, rs, err := Open(Config{Runners: 1, QueueCap: 8, JobsCap: jobsCap, Backend: backend})
		if err != nil {
			t.Fatal(err)
		}
		return srv, rs, backend
	}
	g := mine.FromEdges([]mine.Label{1, 2, 1}, []mine.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	submit := func(srv *Server, seed int64) *Job {
		t.Helper()
		sg, _, err := srv.Store().Add(g, "tiny")
		if err != nil {
			t.Fatal(err)
		}
		j, err := srv.Scheduler().Submit(sg, "testminer", mine.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, j)
		return j
	}
	listed := func(srv *Server) string {
		var ids []string
		for _, snap := range srv.Scheduler().Snapshots() {
			ids = append(ids, snap.ID)
		}
		return strings.Join(ids, " ")
	}

	srv, _, backend := open(0)
	for seed := int64(1); seed <= 3; seed++ {
		submit(srv, seed)
	}
	srv.Shutdown(context.Background())
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	srv, rs, backend := open(2)
	defer backend.Close()
	defer srv.Shutdown(context.Background())
	if rs.Jobs != 2 || listed(srv) != "j2 j3" {
		t.Fatalf("recovered %d jobs listed as %q, want the newest two: \"j2 j3\"", rs.Jobs, listed(srv))
	}
	if j4 := submit(srv, 4); j4.ID != "j4" {
		t.Fatalf("post-restart job got id %s, want j4", j4.ID)
	}
	if got := listed(srv); got != "j3 j4" {
		t.Fatalf("jobs after one more submission %q, want \"j3 j4\" (oldest terminal evicted)", got)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/jobs/j2", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("GET evicted recovered job: %d, want 404", rec.Code)
	}
}

// TestChaosDiskFaults drives the store/disk/* failpoints through the
// HTTP surface: injected storage I/O faults must surface as 503
// backpressure (upload) or silent cache degradation (reads) — never as
// a 404, a registered-but-unreadable graph, or a dead daemon.
func TestChaosDiskFaults(t *testing.T) {
	defer fault.DisarmAll()
	srv, _, backend := openDiskServer(t, t.TempDir())
	defer backend.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	base := ts.URL

	lg := persistHostLG(t)

	// Put fault: the upload parses, the durable write fails → 503 with
	// Retry-After, and nothing is registered.
	if err := fault.Arm("store/disk/put", fault.Spec{Kind: fault.KindError, Msg: "injected put failure"}); err != nil {
		t.Fatal(err)
	}
	resp := post(t, base+"/graphs", "text/plain", lg)
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload under put fault: %d %s, want 503", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 upload without Retry-After")
	}
	if srv.Store().Len() != 0 {
		t.Error("failed upload registered a graph")
	}
	// The daemon is alive and still claims liveness.
	resp = get(t, base+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz under put fault: %d", resp.StatusCode)
	}
	resp.Body.Close()
	fault.DisarmAll()

	// Sync fault: same contract through the fsync path.
	if err := fault.Arm("store/disk/sync", fault.Spec{Kind: fault.KindError, Msg: "injected sync failure"}); err != nil {
		t.Fatal(err)
	}
	resp = post(t, base+"/graphs", "text/plain", lg)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("upload under sync fault: %d, want 503", resp.StatusCode)
	}
	fault.DisarmAll()

	// Disarmed, the same bytes go through.
	resp = post(t, base+"/graphs", "text/plain", lg)
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()
	if sg.ID == "" {
		t.Fatal("upload after disarm failed")
	}

	// Get fault: the persistent cache tier degrades to a miss, so a
	// submission still completes by mining — slower, never wrong, and
	// the degradation is counted apart from misses.
	if err := fault.Arm("store/disk/get", fault.Spec{Kind: fault.KindError, Msg: "injected get failure"}); err != nil {
		t.Fatal(err)
	}
	snap, code := submitJob(t, base, sg.ID, persistOpts)
	if code != http.StatusAccepted {
		t.Fatalf("submit under get fault: code %d", code)
	}
	fin := pollTerminal(t, base, snap.ID)
	if fin.Status != StatusDone {
		t.Fatalf("job under get fault finished %q", fin.Status)
	}
	fault.DisarmAll()

	resp = get(t, base+"/stats")
	stats := decodeJSON[map[string]json.RawMessage](t, resp.Body)
	resp.Body.Close()
	var cs CacheStats
	if err := json.Unmarshal(stats["cache"], &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Degraded < 1 {
		t.Errorf("cache stats %+v, want >=1 degraded lookup under get fault", cs)
	}
}

// TestPersistMetricsSchema pins the storage-engine metric families:
// present (and moving) on a disk-backed daemon, present at zero on a
// memory-backed one — the schema must not depend on -data-dir.
func TestPersistMetricsSchema(t *testing.T) {
	families := []string{
		"# TYPE spiderserved_store_disk_bytes_written_total counter",
		"# TYPE spiderserved_store_disk_bytes_read_total counter",
		"# TYPE spiderserved_store_disk_fsyncs_total counter",
		"# TYPE spiderserved_store_disk_recovery_truncations_total counter",
		"# TYPE spiderserved_cache_backend_hits_total counter",
		"# TYPE spiderserved_cache_persist_drops_total counter",
		"# TYPE spiderserved_sched_journal_errors_total counter",
	}

	scrape := func(t *testing.T, base string) string {
		t.Helper()
		resp := get(t, base+"/metrics")
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	t.Run("disk", func(t *testing.T) {
		srv, _, backend := openDiskServer(t, t.TempDir())
		defer backend.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Shutdown(context.Background())

		post(t, ts.URL+"/graphs", "text/plain", persistHostLG(t)).Body.Close()
		expo := scrape(t, ts.URL)
		for _, want := range families {
			if !strings.Contains(expo, want) {
				t.Errorf("disk exposition missing %q", want)
			}
		}
		// The upload moved the write-path counters.
		if strings.Contains(expo, "spiderserved_store_disk_bytes_written_total 0\n") {
			t.Error("bytes_written still zero after an upload")
		}
		if strings.Contains(expo, "spiderserved_store_disk_fsyncs_total 0\n") {
			t.Error("fsyncs still zero after an upload")
		}
	})

	t.Run("memory", func(t *testing.T) {
		srv := New(Config{Runners: 1, QueueCap: 2, CacheCap: 2})
		ts := httptest.NewServer(srv)
		defer ts.Close()
		defer srv.Shutdown(context.Background())
		expo := scrape(t, ts.URL)
		for _, want := range families {
			if !strings.Contains(expo, want) {
				t.Errorf("memory exposition missing %q", want)
			}
		}
	})
}

// TestPersistNothingWithoutDisk: a server built without a durable tier
// writes nowhere. An upload and a mined (and cached) job leave the disk
// counters at zero on /metrics, and /stats says "persistent": false.
func TestPersistNothingWithoutDisk(t *testing.T) {
	srv := New(Config{Runners: 1, QueueCap: 2, CacheCap: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	resp := post(t, ts.URL+"/graphs", "text/plain", persistHostLG(t))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status %d", resp.StatusCode)
	}
	sg := decodeJSON[StoredGraph](t, resp.Body)
	resp.Body.Close()
	snap, code := submitJob(t, ts.URL, sg.ID, persistOpts)
	if code != http.StatusAccepted {
		t.Fatalf("submit: code %d", code)
	}
	if fin := pollTerminal(t, ts.URL, snap.ID); fin.Status != StatusDone {
		t.Fatalf("job finished %q: %+v", fin.Status, fin)
	}

	resp = get(t, ts.URL+"/metrics")
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"spiderserved_store_disk_bytes_written_total 0\n",
		"spiderserved_store_disk_fsyncs_total 0\n",
		"spiderserved_cache_persist_drops_total 0\n",
		"spiderserved_sched_journal_errors_total 0\n",
	} {
		if !strings.Contains(string(expo), want) {
			t.Errorf("memory-only /metrics lacks %q", strings.TrimSpace(want))
		}
	}
	resp = get(t, ts.URL+"/stats")
	stats := decodeJSON[map[string]any](t, resp.Body)
	resp.Body.Close()
	if p, ok := stats["persistent"].(bool); !ok || p {
		t.Errorf(`/stats "persistent" = %v, want false`, stats["persistent"])
	}
}

// TestRecoverRejectsTamperedGraph: recovery re-verifies every graph's
// content fingerprint against its blob key and refuses to serve a
// mismatch — corruption below the CRC layer (or a codec drift) must
// fail loudly, not alias one graph as another.
func TestRecoverRejectsTamperedGraph(t *testing.T) {
	backend, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer backend.Close()
	st := NewStore(backend)
	g := mine.FromEdges([]mine.Label{1, 2, 1}, []mine.Edge{{U: 0, W: 1}, {U: 1, W: 2}})
	sg, _, err := st.Add(g, "victim")
	if err != nil {
		t.Fatal(err)
	}
	// Re-key the blob under a different (wrong) fingerprint.
	blob, err := backend.Get("graphs", sg.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := backend.Delete("graphs", sg.ID); err != nil {
		t.Fatal(err)
	}
	if err := backend.Put("graphs", "0123456789abcdef0123456789abcdef", blob); err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewStore(backend).Recover(); err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("Recover accepted a tampered blob (err %v)", err)
	}
}

// FuzzRecoverJournal feeds hostile journal records, one per line, to
// recoverJournal. It must never panic; it registers exactly the IDs of
// terminal job/v1 records with a non-empty ID, each serving the status
// of its last such record; and the job-ID sequence resumes past the
// highest recovered j<N>.
func FuzzRecoverJournal(f *testing.F) {
	rec := func(typ, id string, st Status) string {
		raw, err := json.Marshal(jobRecord{Type: typ, Snap: JobSnapshot{ID: id, Miner: "spidermine", Status: st}})
		if err != nil {
			f.Fatal(err)
		}
		return string(raw)
	}
	f.Add(rec(jobRecordType, "j1", StatusDone) + "\n" + rec(jobRecordType, "j3", StatusFailed))
	f.Add(rec(jobRecordType, "j2", StatusCanceled) + "\n" + rec(jobRecordType, "j2", StatusDone))
	f.Add(rec(jobRecordType, "j7", StatusRunning) + "\n" + rec(jobRecordType, "", StatusDone))
	f.Add(rec("job/v2", "j9", StatusDone) + "\n{not json\n\n" + rec(jobRecordType, "j4", StatusQueued))
	f.Add(rec(jobRecordType, "j5x", StatusDone) + "\n" + rec(jobRecordType, "j99999999999999999999", StatusDone))
	f.Add(`{"type":"job/v1","snapshot":{"id":"j12","status":"failed","error":"boom"},"key":{"Host":"h"}}`)
	f.Add(`{"type":"job/v1","snapshot":{"id":"x","status":"done"}}` + "\nnull\n[]\n\"job/v1\"")

	f.Fuzz(func(t *testing.T, journal string) {
		var recs [][]byte
		for _, line := range strings.Split(journal, "\n") {
			recs = append(recs, []byte(line))
		}
		s := NewScheduler(NewCache(0, nil), 1, 1)
		defer s.Shutdown(context.Background())
		n := s.recoverJournal(recs)

		want := map[string]Status{}
		highest := 0
		for _, raw := range recs {
			var r jobRecord
			if json.Unmarshal(raw, &r) != nil || r.Type != jobRecordType || r.Snap.ID == "" || !r.Snap.Status.terminal() {
				continue
			}
			want[r.Snap.ID] = r.Snap.Status
			if digits, ok := strings.CutPrefix(r.Snap.ID, "j"); ok {
				if v, err := strconv.Atoi(digits); err == nil && v > highest {
					highest = v
				}
			}
		}
		if len(want) > defaultJobRetention {
			return // eviction keeps the newest; the oracle above does not model it
		}
		if n != len(want) {
			t.Fatalf("recovered %d jobs, want %d", n, len(want))
		}
		for _, j := range s.List() {
			st, ok := want[j.ID]
			if !ok {
				t.Fatalf("registered job %q from no terminal job/v1 record", j.ID)
			}
			if got := j.Snapshot().Status; got != st {
				t.Fatalf("job %q serves status %q, want its last record's %q", j.ID, got, st)
			}
		}
		s.mu.Lock()
		last := s.nextID
		s.mu.Unlock()
		if last < highest {
			t.Fatalf("ID sequence resumes at j%d, want past j%d", last+1, highest)
		}
	})
}

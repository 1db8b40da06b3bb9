package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/mine"
)

// submitRaw posts body to POST /jobs on srv without a listener.
func submitRaw(srv *Server, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(body)))
	return rec
}

// TestSubmitWallClockBound: a max_wall_clock_ms past what a time.Duration
// holds is a 400, not a budget that wraps to a few microseconds or to a
// negative duration (no budget at all). The largest value that fits is
// accepted as it is.
func TestSubmitWallClockBound(t *testing.T) {
	setTestMiner(t, nil)
	srv := New(Config{Runners: 1, QueueCap: 4, CacheCap: 4})
	defer srv.Shutdown(context.Background())
	sg, _, err := srv.Store().Add(mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}}), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, ms := range []string{"18446744073710", "9223372036855", "9223372036854775807"} {
		rec := submitRaw(srv, fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"max_wall_clock_ms":%s}}`, sg.ID, ms))
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "max_wall_clock_ms") {
			t.Errorf("max_wall_clock_ms %s: status %d (%s), want 400 naming the field", ms, rec.Code, rec.Body)
		}
	}
	rec := submitRaw(srv, fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":{"max_wall_clock_ms":%d}}`, sg.ID, maxWallClockMS))
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		t.Fatalf("max_wall_clock_ms %d: status %d (%s), want it accepted", maxWallClockMS, rec.Code, rec.Body)
	}
	var snap JobSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	j, ok := srv.Scheduler().Get(snap.ID)
	if !ok {
		t.Fatalf("job %s not registered", snap.ID)
	}
	if j.Opts.MaxWallClock <= 0 || j.Opts.MaxWallClock.Milliseconds() != maxWallClockMS {
		t.Errorf("budget %v, want %d ms", j.Opts.MaxWallClock, maxWallClockMS)
	}
}

// TestSubmitDefaultSpiderCap: a spidermine job that sets no max_spiders
// runs, and is keyed and recorded, with the default Stage I cap; a job
// that sets its own keeps it, and other miners are left alone.
func TestSubmitDefaultSpiderCap(t *testing.T) {
	srv := New(Config{Runners: 1, QueueCap: 8, CacheCap: 8})
	defer srv.Shutdown(context.Background())
	// No spidermine job here reaches a runner while the test looks: the
	// one runner is held by the first testminer job until release closes.
	release := make(chan struct{})
	defer close(release)
	setTestMiner(t, func(ctx context.Context, host mine.Host, opts mine.Options) (*mine.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &mine.Result{Miner: "testminer"}, ctx.Err()
	})
	sg, _, err := srv.Store().Add(mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}}), "tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		miner, options string
		want           int
	}{
		{"testminer", `{"seed":1}`, 0},
		{"spidermine", `{"seed":2}`, defaultJobMaxSpiders},
		{"", `{"seed":3,"max_leaves_per_star":4}`, defaultJobMaxSpiders},
		{"spidermine", `{"seed":4,"max_spiders":1000}`, 1000},
	} {
		rec := submitRaw(srv, fmt.Sprintf(`{"graph":%q,"miner":%q,"options":%s}`, sg.ID, tc.miner, tc.options))
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s %s: status %d (%s)", tc.miner, tc.options, rec.Code, rec.Body)
		}
		var snap JobSnapshot
		if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		j, ok := srv.Scheduler().Get(snap.ID)
		if !ok {
			t.Fatalf("job %s not registered", snap.ID)
		}
		if j.Opts.MaxSpiders != tc.want {
			t.Errorf("%s %s: runs with max_spiders %d, want %d", tc.miner, tc.options, j.Opts.MaxSpiders, tc.want)
		}
		if j.Key != Key(sg.ID, j.Miner, j.Opts) {
			t.Errorf("%s %s: keyed %+v, not by the options it runs with", tc.miner, tc.options, j.Key)
		}
	}
}

// FuzzSubmitJob feeds POST /jobs hostile bodies on a server holding one
// graph. The seeds name the stub miner, so they mine nothing; a mutation
// that names a real miner mines the two-vertex host. The handler must
// never panic; a body it rejects gets 400, or 404 for an unknown graph,
// never 500; and the options of every accepted body keep their canonical
// form, the cache key's input, across a JSON re-encode.
func FuzzSubmitJob(f *testing.F) {
	testMinerOnce.Do(func() { mine.Register(testMiner{}) })
	srv := New(Config{Runners: 1, QueueCap: 1024, CacheCap: 1024})
	f.Cleanup(func() { srv.Shutdown(context.Background()) })
	sg, _, err := srv.Store().Add(mine.FromEdges([]mine.Label{1, 2}, []mine.Edge{{U: 0, W: 1}}), "tiny")
	if err != nil {
		f.Fatal(err)
	}
	job := func(options string) string {
		return fmt.Sprintf(`{"graph":%q,"miner":"testminer","options":%s}`, sg.ID, options)
	}
	f.Add(job(`{"max_wall_clock_ms":18446744073710}`))
	f.Add(job(`{"max_wall_clock_ms":9223372036855}`))
	f.Add(job(`{"max_wall_clock_ms":9223372036854}`))
	f.Add(job(`{"min_support":2,"k":3,"dmax":4,"epsilon":0.05,"measure":"harmful","seed":-7,"max_spiders":10,"max_leaves_per_star":6}`))
	f.Add(job(`{"epsilon":-0,"workers":2}`))
	f.Add(job(`{"k":-1}`))
	f.Add(job(`{"measure":"bogus"}`))
	f.Add(job(`{"seed":1e3}`))
	f.Add(job(`{}`) + `trailing`)
	f.Add(`{"graph":"nope","miner":"testminer"}`)
	f.Add(`{"graph":"` + sg.ID + `","miner":"no-such"}`)
	f.Add(`{"bogus_field":1}`)
	f.Add(`not json`)

	f.Fuzz(func(t *testing.T, body string) {
		rec := submitRaw(srv, body)
		switch rec.Code {
		case http.StatusOK, http.StatusAccepted:
		case http.StatusBadRequest, http.StatusNotFound:
			return
		case http.StatusServiceUnavailable:
			return // load shedding: the queue was full, whatever the body
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		dec := json.NewDecoder(strings.NewReader(body))
		dec.DisallowUnknownFields()
		var req jobRequest
		if err := dec.Decode(&req); err != nil {
			t.Fatalf("accepted %q, which does not decode: %v", body, err)
		}
		raw, err := json.Marshal(req.Options)
		if err != nil {
			t.Fatal(err)
		}
		var again optionsJSON
		if err := json.Unmarshal(raw, &again); err != nil {
			t.Fatalf("re-encoded options %s do not decode: %v", raw, err)
		}
		if a, b := req.Options.toOptions().Canonical(), again.toOptions().Canonical(); a != b {
			t.Fatalf("canonical options change across a re-encode:\n%s\n%s", a, b)
		}
	})
}

package main

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/mine"
)

// sloMix is serve-mixed's traffic. The classes are those of
// cmd/spiderload, the repository's serving load generator, and each
// class's rate is the number of its requests SLO_PR7.json counted in
// spiderload's committed 10 s run (8 workers, seed 1); serve-mixed offers
// that traffic as an open loop instead of from waiting workers.
//
//   - job_get: spiderload polls each job it waits for (235 polls); here a
//     read of a finished job.
//   - submit_repeat: 78 repeat submits, less the 31 that opened a stream.
//   - events_stream: a repeat submit, then the job's event stream read to
//     its end (31).
//   - reupload: 12 uploads, less the 3 that seeded the hosts.
//   - readyz: the operator's probe. spiderload reads GET /stats (7), but
//     /stats and /metrics deadlock against a concurrent cache-hit POST
//     /jobs: the metric registry's snapshot holds the registry lock while a
//     gauge takes the scheduler lock, and a cache-hit Submit holds the
//     scheduler lock while counting the job in the registry. /stats is read
//     once the phases end.
//   - submit_fresh: 41 fresh submits, less the 8 that were cancelled.
//   - submit_cancel: a fresh submit, then DELETE of the job (8).
var sloMix = []struct {
	class  string
	per10s int
	heavy  bool // loaded phase only: the server mines for it
}{
	{"job_get", 235, false}, {"submit_repeat", 47, false}, {"events_stream", 31, false},
	{"reupload", 9, false}, {"readyz", 7, false},
	{classFresh, 33, true}, {classCancel, 8, true},
}

const (
	classFresh  = "submit_fresh"
	classCancel = "submit_cancel"
)

// The options seeds of the jobs the server mines during the run: fresh
// job i mines seed freshSeed+i (spiderload's first fresh seed is 1001),
// cancelled job i seed cancelSeed+i, each on base host i mod 3, whatever
// --seed is. A mining job's cost varies by host and seed (210–360 ms); a
// job set that moved with --seed would move the phase's CPU with it.
const (
	freshSeed  = 1001
	cancelSeed = 1_000_001
)

// jobArrivals seeds the arrival times of the jobs the loaded phase
// submits: one Poisson draw for every run. Drawn from --seed, how they
// bunched decided how long jobs queued, and the fresh jobs' median latency
// moved over 239–324 ms across ten seeds.
const jobArrivals = 1

// lagLimit bounds the generator's p99 dispatch lag; a run whose generator
// fell further behind did not offer the load it claims to and is
// reported as incorrect.
const lagLimit = 100 * time.Millisecond

// request is one scheduled request; arg picks the input of its class.
type request struct {
	due   time.Duration
	class string
	arg   int
}

// serveInputs are serve-mixed's generated inputs: the LG bodies of the
// base hosts (spiderload's three), both phases' open-loop schedules, and
// how many jobs the loaded phase submits fresh and cancels.
type serveInputs struct {
	base            [][]byte
	idle, loaded    []request
	fresh, canceled int
}

// serveInputsFor draws the schedules: each class arrives as a Poisson
// process at its sloMix rate, conditioned on its expected count, so every
// run offers the same requests. The light classes' timing and order move
// with seed, the jobs' come from jobArrivals. A request on a base host or
// job takes the next one in turn.
func serveInputsFor(seed int64, sz sizes, idle, loaded time.Duration) serveInputs {
	light, jobs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(jobArrivals))
	var in serveInputs
	turn := make(map[string]int)
	schedule := func(rng *rand.Rand, d time.Duration, heavy bool) []request {
		var classes []string
		for _, c := range sloMix {
			if c.heavy != heavy {
				continue
			}
			for range int(math.Round(float64(c.per10s) * sz.traffic * d.Seconds() / 10)) {
				classes = append(classes, c.class)
			}
		}
		rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
		out := make([]request, len(classes))
		for i, at := range arrivals(rng, len(classes), d) {
			out[i] = request{due: at, class: classes[i], arg: turn[classes[i]]}
			turn[classes[i]]++
		}
		return out
	}
	in.idle = schedule(light, idle, false)
	in.loaded = append(schedule(light, loaded, false), schedule(jobs, loaded, true)...)
	slices.SortStableFunc(in.loaded, func(a, b request) int { return cmp.Compare(a.due, b.due) })
	in.fresh, in.canceled = turn[classFresh], turn[classCancel]
	for i := range 3 {
		in.base = append(in.base, hostLG(100+int64(i)))
	}
	return in
}

// hostLG renders spiderload's host of that seed (§5.1 synthetic, 300
// vertices, average degree 4, 12 labels, injected patterns) as an LG
// upload body.
func hostLG(seed int64) []byte {
	g, _ := gen.Synthetic(gen.SyntheticConfig{
		N: 300, AvgDeg: 4, NumLabels: 12,
		Large: gen.InjectSpec{NV: 10, Count: 2, Support: 6},
		Small: gen.InjectSpec{NV: 4, Count: 6, Support: 6},
		Seed:  seed,
	})
	var buf bytes.Buffer
	g.WriteLG(&buf, fmt.Sprintf("load-host-%d", seed))
	return buf.Bytes()
}

// jobBody is spiderload's spidermine job request; seed varies the cache
// key.
func jobBody(graphID string, seed int) []byte {
	return fmt.Appendf(nil, `{"graph":%q,"miner":"spidermine","options":{"min_support":3,"k":5,"seed":%d,"workers":1}}`, graphID, seed)
}

// serverConfig is the server both serving workloads run: 2 runners, a
// 256-job queue and a 512-entry result cache over the given store.
func serverConfig(disk *store.Disk) serve.Config {
	return serve.Config{Runners: 2, QueueCap: 256, CacheCap: 512, Backend: disk}
}

// front is a loopback HTTP listener in front of whichever server is
// installed, and a client limited to 2 connections.
type front struct {
	cur    atomic.Pointer[serve.Server]
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
}

func startFront() (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
	}
	f.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if s := f.cur.Load(); s != nil {
			s.ServeHTTP(w, r)
			return
		}
		http.Error(w, "no server installed", http.StatusServiceUnavailable)
	})}
	go func() {
		defer close(f.served)
		f.hs.Serve(ln)
	}()
	return f, nil
}

// stop closes the listener and every connection and waits for the serve
// loop to end.
func (f *front) stop() {
	f.hs.Close()
	<-f.served
	f.client.CloseIdleConnections()
}

// closeServer drains a server's scheduler and closes it and its store.
func closeServer(srv *serve.Server, disk *store.Disk) error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv.Shutdown(ctx)
	err := srv.Close()
	if cerr := disk.Close(); err == nil {
		err = cerr
	}
	return err
}

// rig is a server over a disk store in a fresh directory behind a front.
type rig struct {
	*front
	disk *store.Disk
	srv  *serve.Server
}

func startRig(dir string) (*rig, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	f, err := startFront()
	if err != nil {
		disk.Close()
		return nil, err
	}
	r := &rig{front: f, disk: disk, srv: serve.New(serverConfig(disk))}
	f.cur.Store(r.srv)
	return r, nil
}

func (r *rig) stop() error {
	r.front.stop()
	return closeServer(r.srv, r.disk)
}

// call sends one request, reads the whole response and fails unless the
// status is want.
func call(c *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %.200s", method, req.URL.Path, resp.StatusCode, want, raw)
	}
	return raw, nil
}

// jobWire is the part of a job snapshot the benchmark reads.
type jobWire struct {
	ID       string    `json:"id"`
	Graph    string    `json:"graph"`
	Status   string    `json:"status"`
	Cached   bool      `json:"cached"`
	Patterns int       `json:"patterns"`
	Created  time.Time `json:"created"`
	Started  time.Time `json:"started"`
	Finished time.Time `json:"finished"`
}

// resultWire is a GET /jobs/{id}/result body.
type resultWire struct {
	Status    string          `json:"status"`
	Miner     string          `json:"miner"`
	Truncated string          `json:"truncated"`
	Stats     mine.Stats      `json:"stats"`
	Patterns  []*mine.Pattern `json:"patterns"`
}

func (w resultWire) result() *mine.Result {
	return &mine.Result{Miner: w.Miner, Patterns: w.Patterns, Stats: w.Stats, Truncated: mine.Truncation(w.Truncated)}
}

// serveState is one set-up's server and the ids it handed out.
type serveState struct {
	*rig
	in         *serveInputs
	baseIDs    []string // graph ids of the base hosts
	warmJobs   []string // the mined (and so cached) job of each base host
	freshJobs  []string // job ids of the fresh submissions, by arg
	cancelJobs []string // job ids of the cancelled submissions, by arg
}

// submit posts a spidermine job on base host i with the given options
// seed and decodes the answer, which must have status want.
func (st *serveState) submit(host, seed, want int) (jobWire, error) {
	var j jobWire
	raw, err := call(st.client, "POST", st.base+"/jobs", jobBody(st.baseIDs[host%len(st.baseIDs)], seed), want)
	if err != nil {
		return j, err
	}
	if err := json.Unmarshal(raw, &j); err != nil || j.ID == "" {
		return j, fmt.Errorf("submit answered %.200s", raw)
	}
	return j, nil
}

// send issues one scheduled request and checks its answer.
func (st *serveState) send(rq request) error {
	switch rq.class {
	case "job_get":
		id := st.warmJobs[rq.arg%len(st.warmJobs)]
		raw, err := call(st.client, "GET", st.base+"/jobs/"+id, nil, http.StatusOK)
		if err != nil {
			return err
		}
		var j jobWire
		if err := json.Unmarshal(raw, &j); err != nil || j.ID != id || j.Status != "done" {
			return fmt.Errorf("job %s: %.200s", id, raw)
		}
	case "submit_repeat", "events_stream":
		j, err := st.submit(rq.arg, 1, http.StatusOK)
		if err != nil {
			return err
		}
		if !j.Cached || j.Status != "done" {
			return fmt.Errorf("repeat submit %s not served from cache: status %q", j.ID, j.Status)
		}
		if rq.class == "events_stream" {
			return st.readEvents(j.ID)
		}
	case "reupload":
		i := rq.arg % len(st.in.base)
		raw, err := call(st.client, "POST", st.base+"/graphs", st.in.base[i], http.StatusOK)
		if err != nil {
			return err
		}
		if id, err := graphID(raw); err != nil || id != st.baseIDs[i] {
			return fmt.Errorf("re-upload answered id %q (%v), want %q", id, err, st.baseIDs[i])
		}
	case "readyz":
		_, err := call(st.client, "GET", st.base+"/readyz", nil, http.StatusOK)
		return err
	case classFresh:
		j, err := st.submit(rq.arg, freshSeed+rq.arg, http.StatusAccepted)
		if err != nil {
			return err
		}
		st.freshJobs[rq.arg] = j.ID
	case classCancel:
		j, err := st.submit(rq.arg, cancelSeed+rq.arg, http.StatusAccepted)
		if err != nil {
			return err
		}
		st.cancelJobs[rq.arg] = j.ID
		_, err = call(st.client, "DELETE", st.base+"/jobs/"+j.ID, nil, http.StatusAccepted)
		return err
	default:
		return fmt.Errorf("unknown request class %q", rq.class)
	}
	return nil
}

// readEvents reads a finished job's event stream to its end, which must
// be the status record of a done job.
func (st *serveState) readEvents(id string) error {
	raw, err := call(st.client, "GET", st.base+"/jobs/"+id+"/events", nil, http.StatusOK)
	if err != nil {
		return err
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var last struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.Status != "done" {
		return fmt.Errorf("events of %s end with %.200s", id, lines[len(lines)-1])
	}
	return nil
}

func graphID(raw []byte) (string, error) {
	var g struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &g); err != nil || g.ID == "" {
		return "", fmt.Errorf("upload answer without an id: %.200s", raw)
	}
	return g.ID, nil
}

// waitJob blocks until the job is terminal.
func (st *serveState) waitJob(id string) error {
	j, ok := st.srv.Scheduler().Get(id)
	if !ok {
		return fmt.Errorf("job %s unknown", id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	return j.Done(ctx)
}

// newServeState generates the inputs and brings up a server holding the
// base hosts and their mined (so cached) jobs, warmed with one request of
// each light class.
func (b *bench) newServeState(rep int, idle, loaded time.Duration) (*serveState, error) {
	in := serveInputsFor(b.seed, b.sz, idle, loaded)
	r, err := startRig(filepath.Join(b.dir, fmt.Sprintf("serve-%d", rep)))
	if err != nil {
		return nil, err
	}
	st := &serveState{rig: r, in: &in, freshJobs: make([]string, in.fresh), cancelJobs: make([]string, in.canceled)}
	err = func() error {
		for _, body := range in.base {
			raw, err := call(r.client, "POST", r.base+"/graphs", body, http.StatusCreated)
			if err != nil {
				return err
			}
			id, err := graphID(raw)
			if err != nil {
				return err
			}
			st.baseIDs = append(st.baseIDs, id)
		}
		for i := range st.baseIDs {
			j, err := st.submit(i, 1, http.StatusAccepted)
			if err != nil {
				return err
			}
			st.warmJobs = append(st.warmJobs, j.ID)
		}
		for _, id := range st.warmJobs {
			if err := st.waitJob(id); err != nil {
				return err
			}
		}
		for _, c := range sloMix {
			if c.heavy {
				continue
			}
			if err := st.send(request{class: c.class}); err != nil {
				return fmt.Errorf("warm-up %s: %w", c.class, err)
			}
		}
		return nil
	}()
	if err != nil {
		r.stop()
		return nil, err
	}
	return st, nil
}

// phase is one phase's requests and what happened to them.
type phase struct {
	reqs  []request
	start time.Time
	shots []shot
}

func (st *serveState) run(reqs []request) phase {
	due := make([]time.Duration, len(reqs))
	for i, rq := range reqs {
		due[i] = rq.due
	}
	p := phase{reqs: reqs, start: time.Now()}
	p.shots = openLoop(p.start, due, 2, func(i int) error { return st.send(reqs[i]) })
	return p
}

// latencies returns the phase's latencies in ms of the requests whose
// class passes keep, timed from their due time to their (last) answer;
// failed ones count as missed.
func (p phase) latencies(keep func(class string) bool) []float64 {
	var out []float64
	for i, s := range p.shots {
		if keep(p.reqs[i].class) {
			out = append(out, latencyOf(s.latency, s.err))
		}
	}
	return out
}

func isLight(class string) bool { return class != classFresh && class != classCancel }

// runServeMixed drives an in-process server over a disk store with sloMix
// as an open loop from 2 senders: an idle phase of the light classes only,
// then a loaded phase with all of them, each half of --seconds. Every
// request is an operation; a fresh submit's latency runs from its due time
// until its job finished (the server's stamp, read from GET /jobs once
// the phase drains), the others' until their last answer was read.
func runServeMixed(b *bench) error {
	idle := b.seconds / 2
	loaded := b.seconds - idle
	var st *serveState
	rep := 0
	teardown, err := b.setup(func() (func(), error) {
		var err error
		st, err = b.newServeState(rep, idle, loaded)
		rep++
		if err != nil {
			return nil, err
		}
		s := st
		return func() { s.stop() }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	m := startMeter()
	idleP := st.run(st.in.idle)
	disk0 := st.disk.Stats()
	loadedP := st.run(st.in.loaded)
	for _, id := range slices.Concat(st.freshJobs, st.cancelJobs) {
		if id != "" {
			if err := st.waitJob(id); err != nil {
				return err
			}
		}
	}
	use := m.finish()
	disk1 := st.disk.Stats()

	var lags []float64
	for _, p := range []phase{idleP, loadedP} {
		for _, s := range p.shots {
			b.op(s.err)
			lags = append(lags, ms(s.lag))
		}
	}
	if lag := percentile(lags, 990); lag > ms(lagLimit) {
		b.problem(fmt.Errorf("generator p99 dispatch lag %.1fms exceeds %v", lag, lagLimit))
	}
	jobs, results, err := st.outcomes(b, loadedP)
	if err != nil {
		return err
	}
	var parts [][]byte
	for _, res := range results {
		raw, err := resultBytes(res)
		if err != nil {
			return err
		}
		parts = append(parts, raw)
	}
	b.digest = digestOf(parts)

	if b.trace {
		b.report("loadgen.dispatch_lag_ms_p99", "ms", percentile(lags, 990), lags)
		ops := float64(max(len(loadedP.shots), 1))
		b.report("store.fsyncs_per_op", "ratio", float64(disk1.Fsyncs-disk0.Fsyncs)/ops, nil)
		b.report("store.bytes_written_per_op", "bytes", float64(disk1.BytesWritten-disk0.BytesWritten)/ops, nil)
		return st.traceLayers(b, idleP, loadedP, jobs, results)
	}
	idleLat := idleP.latencies(isLight)
	loadedLight := loadedP.latencies(isLight)
	var jobMS []float64
	for i, rq := range loadedP.reqs {
		if rq.class == classFresh {
			jobMS = append(jobMS, jobs.latency(rq.arg, loadedP.shots[i].err))
		}
	}
	all := slices.Concat(idleLat, loadedLight, loadedP.latencies(func(c string) bool { return c == classCancel }), jobMS)
	b.endToEndMetrics(all, use, len(all))
	b.reportDist("idle_request_ms_p50", "ms", idleLat)
	b.reportTail("idle_request_ms_tail", "ms", idleLat)
	b.reportDist("request_ms_p50", "ms", loadedLight)
	b.reportTail("request_ms_tail", "ms", loadedLight)
	b.reportDist("job_ms_p50", "ms", jobMS)
	b.reportTail("job_ms_tail", "ms", jobMS)
	return nil
}

// freshJob is one fresh job's timeline, in ms; ok is false for a job
// that did not end done with patterns.
type freshJob struct {
	id                     string
	latency, queue, runFor float64
	ok                     bool
}

// jobTimes are the loaded phase's fresh jobs, by arg.
type jobTimes []freshJob

// latency is fresh job i's latency, or missed if its submit failed or the
// job did not end done with patterns.
func (fj jobTimes) latency(i int, submitErr error) float64 {
	if submitErr != nil || !fj[i].ok {
		return missed
	}
	return fj[i].latency
}

// outcomes reads every job of the loaded phase from GET /jobs once they
// are terminal: each fresh job must have ended done with at least one
// pattern, each cancelled one canceled (or done, if it finished before
// the DELETE reached it). It returns the fresh jobs' timelines and, in
// their order, their results.
func (st *serveState) outcomes(b *bench, loaded phase) (jobTimes, []*mine.Result, error) {
	raw, err := call(st.client, "GET", st.base+"/jobs", nil, http.StatusOK)
	if err != nil {
		return nil, nil, err
	}
	var all []jobWire
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, nil, err
	}
	byID := make(map[string]jobWire, len(all))
	for _, j := range all {
		byID[j.ID] = j
	}
	for _, id := range st.cancelJobs {
		if j := byID[id]; id != "" && j.Status != "canceled" && j.Status != "done" {
			b.problem(fmt.Errorf("cancelled job %s ended %q", id, j.Status))
		}
	}
	jobs := make(jobTimes, len(st.freshJobs))
	var results []*mine.Result
	for _, rq := range loaded.reqs {
		if rq.class != classFresh || st.freshJobs[rq.arg] == "" {
			continue
		}
		id := st.freshJobs[rq.arg]
		j := byID[id]
		if j.Status != "done" || j.Patterns == 0 {
			b.problem(fmt.Errorf("fresh job %s ended %q with %d patterns", id, j.Status, j.Patterns))
			continue
		}
		jobs[rq.arg] = freshJob{
			id:      id,
			latency: ms(j.Finished.Sub(loaded.start.Add(rq.due))),
			queue:   ms(j.Started.Sub(j.Created)),
			runFor:  ms(j.Finished.Sub(j.Started)),
			ok:      true,
		}
	}
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		raw, err := call(st.client, "GET", st.base+"/jobs/"+j.id+"/result", nil, http.StatusOK)
		if err != nil {
			return nil, nil, err
		}
		var w resultWire
		if err := json.Unmarshal(raw, &w); err != nil {
			return nil, nil, fmt.Errorf("result of %s: %w", j.id, err)
		}
		results = append(results, w.result())
	}
	return jobs, results, nil
}

// traceLayers reports serve-mixed's per-layer split: the scheduler's queue
// wait and run time per fresh job (which must add up to the jobs'
// latency), the mining spans and counts of the fresh jobs read from their
// event streams and results, per-class HTTP medians per phase, the cache
// hit ratio, and replays of the parse, fingerprint, encode, store and
// result-codec calls on this run's own bodies and results.
func (st *serveState) traceLayers(b *bench, idleP, loadedP phase, jobs jobTimes, results []*mine.Result) error {
	var queue, runFor, latency []float64
	var set spanSet
	var c counts
	k := 0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		res := results[k]
		k++
		queue, runFor, latency = append(queue, j.queue), append(runFor, j.runFor), append(latency, j.latency)
		raw, err := call(st.client, "GET", st.base+"/jobs/"+j.id+"/events", nil, http.StatusOK)
		if err != nil {
			return err
		}
		var events []mine.ProgressEvent
		for dec := json.NewDecoder(bytes.NewReader(raw)); dec.More(); {
			var ev mine.ProgressEvent
			if err := dec.Decode(&ev); err != nil {
				return fmt.Errorf("events of %s: %w", j.id, err)
			}
			if ev.Stage != "" {
				events = append(events, ev)
			}
		}
		sp, err := spansOf(events, time.Duration(j.runFor*float64(time.Millisecond)))
		if err != nil {
			b.problem(fmt.Errorf("job %s: %w", j.id, err))
			continue
		}
		set.add(sp, j.runFor)
		c.add(res.Stats)
	}
	b.reportDist("serve.queue_wait_ms_p50", "ms", queue)
	b.reportDist("serve.run_ms_p50", "ms", runFor)
	if err := withinTenPercent("queue wait + run", mean(queue)+mean(runFor), mean(latency)); err != nil {
		b.problem(err)
	}
	b.reportSpans(&set)
	b.reportCounts(c)

	for _, p := range []struct {
		name string
		ph   phase
	}{{"idle", idleP}, {"loaded", loadedP}} {
		for _, mc := range sloMix {
			if mc.heavy && p.name == "idle" {
				continue
			}
			b.reportDist("http."+p.name+"."+mc.class+"_ms_p50", "ms", p.ph.latencies(func(class string) bool { return class == mc.class }))
		}
	}

	raw, err := call(st.client, "GET", st.base+"/stats", nil, http.StatusOK)
	if err != nil {
		return err
	}
	var stats struct {
		Cache serve.CacheStats `json:"cache"`
	}
	if err := json.Unmarshal(raw, &stats); err != nil {
		return err
	}
	// Hits over all lookups. Cache.Get compares the disk store's wrapped
	// ErrNotFound with ==, so a lookup that finds nothing in either tier
	// can be counted as degraded rather than as a miss, and hits ÷ (hits +
	// misses) would read 1.
	lookups := stats.Cache.Hits + stats.Cache.Misses + stats.Cache.Degraded
	b.report("serve.cache_hit_ratio", "ratio", ratio(int64(stats.Cache.Hits), int64(lookups)), nil)
	// Both phases run exactly as untraced; tracing only reads more once
	// they are over.
	b.report("trace.overhead", "ratio", 0, nil)
	return b.replayServeCalls(st.in.base, results)
}

// replayServeCalls times the calls an upload and a result persist pass
// through, one at a time, on the run's own host bodies and results.
func (b *bench) replayServeCalls(bodies [][]byte, results []*mine.Result) error {
	disk, err := store.OpenDisk(filepath.Join(b.dir, "replay-store"))
	if err != nil {
		return err
	}
	defer disk.Close()
	var parse, fp, enc, put []float64
	var buf []byte
	for range 10 {
		for _, body := range bodies {
			t0 := time.Now()
			g, _, err := graph.ReadLG(bytes.NewReader(body))
			t1 := time.Now()
			if err != nil {
				return err
			}
			id := serve.FingerprintGraph(g)
			t2 := time.Now()
			buf = g.AppendBinary(buf[:0])
			t3 := time.Now()
			err = disk.Put("graphs", id, buf)
			t4 := time.Now()
			if err != nil {
				return err
			}
			parse, fp = append(parse, ms(t1.Sub(t0))), append(fp, ms(t2.Sub(t1)))
			enc, put = append(enc, ms(t3.Sub(t2))), append(put, ms(t4.Sub(t3)))
		}
	}
	b.reportDist("graph.lg_parse_ms", "ms", parse)
	b.reportDist("serve.fingerprint_ms", "ms", fp)
	b.reportDist("graph.spg1_encode_ms", "ms", enc)
	b.reportDist("store.put_ms", "ms", put)

	var encUS, decUS []float64
	for _, res := range results {
		t0 := time.Now()
		blob, err := mine.EncodeResult(res)
		t1 := time.Now()
		if err != nil {
			return err
		}
		if _, err := mine.DecodeResult(blob); err != nil {
			return err
		}
		encUS, decUS = append(encUS, us(t1.Sub(t0))), append(decUS, us(time.Since(t1)))
	}
	b.reportDist("mine.spr1_encode_us", "us", encUS)
	b.reportDist("mine.spr1_decode_us", "us", decUS)
	return nil
}

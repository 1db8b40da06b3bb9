package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/mine"
)

// restartJobOpts are the options of restart-1m's cached jobs.
var restartJobOpts = mine.Options{MinSupport: 2, K: 5, Dmax: 4, Workers: 1}

// restartData is what restart-1m's set-up wrote and expects back.
type restartData struct {
	dir    string
	graphs []string          // every graph id, sorted
	jobs   []string          // terminal job ids, in submission order
	want   map[string][]byte // each job's result as SPR1, before any restart
}

// bigHost is restart-1m's large host: a Barabási–Albert graph with attach
// 8, 50 labels and host seed 1 (1,079,964 edges at 135,000 vertices).
func bigHost(n int) *graph.Graph {
	return gen.BarabasiAlbert(n, 8, 50, rand.New(rand.NewSource(1)))
}

// writeRestartDir populates dir through a server over a disk store: the
// big host, sz.smallHosts small hosts and sz.jobs mined jobs spread over
// the small hosts, whose results the server caches durably. It then shuts
// the server down cleanly. The hosts are the same whatever --seed is:
// with hosts drawn from it, the set-up and restart times of ten seeds
// moved together over 1.84–2.19 s and 94–115 ms.
func (b *bench) writeRestartDir(dir string) (*restartData, error) {
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serverConfig(disk))
	d := &restartData{dir: dir, want: make(map[string][]byte)}
	err = func() error {
		sg, _, err := srv.Store().Add(bigHost(b.sz.bigN), "ba-1m")
		if err != nil {
			return err
		}
		d.graphs = append(d.graphs, sg.ID)
		rng := rand.New(rand.NewSource(1))
		var small []*serve.StoredGraph
		for i := range b.sz.smallHosts {
			g, _ := gen.Synthetic(gen.SyntheticConfig{
				N: 120, AvgDeg: 3, NumLabels: 20,
				Large: gen.InjectSpec{NV: 6, Count: 2, Support: 4},
				Small: gen.InjectSpec{NV: 3, Count: 4, Support: 4},
				Seed:  rng.Int63(),
			})
			sg, _, err := srv.Store().Add(g, fmt.Sprintf("small-%d", i))
			if err != nil {
				return err
			}
			small = append(small, sg)
			d.graphs = append(d.graphs, sg.ID)
		}
		var jobs []*serve.Job
		for j := range b.sz.jobs {
			opts := restartJobOpts
			opts.Seed = int64(j + 1)
			job, err := srv.Scheduler().Submit(small[j%len(small)], "spidermine", opts)
			if err != nil {
				return err
			}
			jobs = append(jobs, job)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		for _, job := range jobs {
			if err := job.Done(ctx); err != nil {
				return err
			}
			res, _, err := job.Outcome()
			if err != nil {
				return fmt.Errorf("job %s: %w", job.ID, err)
			}
			raw, err := mine.EncodeResult(res)
			if err != nil {
				return err
			}
			d.jobs = append(d.jobs, job.ID)
			d.want[job.ID] = raw
		}
		return nil
	}()
	if cerr := closeServer(srv, disk); err == nil {
		err = cerr
	}
	slices.Sort(d.graphs)
	return d, err
}

// restart is one restart cycle's timings.
type restart struct {
	openDisk, recover, total, first time.Duration
	rs                              serve.RecoveryStats
}

// restartOnce opens dir as a restarted daemon would (store.OpenDisk, then
// serve.Open; split into serve.New and Server.Recover when split is set),
// installs the server in the front and reads one recovered job's cached
// result in full. It returns the result's body and the open server.
func (f *front) restartOnce(dir, jobID string, split bool) (restart, []byte, *serve.Server, *store.Disk, error) {
	var r restart
	t0 := time.Now()
	disk, err := store.OpenDisk(dir)
	if err != nil {
		return r, nil, nil, nil, err
	}
	r.openDisk = time.Since(t0)
	var srv *serve.Server
	if split {
		srv = serve.New(serverConfig(disk))
		t1 := time.Now()
		r.rs, err = srv.Recover()
		r.recover = time.Since(t1)
	} else {
		srv, r.rs, err = serve.Open(serverConfig(disk))
	}
	r.total = time.Since(t0)
	if err != nil {
		disk.Close()
		return r, nil, nil, nil, err
	}
	f.cur.Store(srv)
	body, err := call(f.client, "GET", f.base+"/jobs/"+jobID+"/result", nil, http.StatusOK)
	r.first = time.Since(t0)
	return r, body, srv, disk, err
}

// stopServer uninstalls and closes a restarted server.
func (f *front) stopServer(srv *serve.Server, disk *store.Disk) error {
	f.cur.Store(nil)
	return closeServer(srv, disk)
}

// checkRecovered checks what a restarted server serves: every graph and
// job set-up wrote is listed, and the given jobs' results are byte-equal
// (as SPR1) to their copies from before any restart. It returns those
// results' digest bytes.
func (f *front) checkRecovered(d *restartData, jobs []string, first []byte) ([][]byte, error) {
	raw, err := call(f.client, "GET", f.base+"/graphs", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var graphs []struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &graphs); err != nil {
		return nil, err
	}
	var ids []string
	for _, g := range graphs {
		ids = append(ids, g.ID)
	}
	slices.Sort(ids)
	if !slices.Equal(ids, d.graphs) {
		return nil, fmt.Errorf("recovered %d graphs, set-up wrote %d (or other ids)", len(ids), len(d.graphs))
	}
	raw, err = call(f.client, "GET", f.base+"/jobs", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	var all []jobWire
	if err := json.Unmarshal(raw, &all); err != nil {
		return nil, err
	}
	done := make(map[string]bool, len(all))
	for _, j := range all {
		done[j.ID] = j.Status == "done"
	}
	for _, id := range d.jobs {
		if !done[id] {
			return nil, fmt.Errorf("job %s not recovered as done", id)
		}
	}
	var parts [][]byte
	for i, id := range jobs {
		body := first
		if i > 0 {
			if body, err = call(f.client, "GET", f.base+"/jobs/"+id+"/result", nil, http.StatusOK); err != nil {
				return nil, err
			}
		}
		var w resultWire
		if err := json.Unmarshal(body, &w); err != nil {
			return nil, fmt.Errorf("result of %s: %w", id, err)
		}
		res := w.result()
		raw, err := mine.EncodeResult(res)
		if err != nil {
			return nil, err
		}
		if string(raw) != string(d.want[id]) {
			return nil, fmt.Errorf("result of %s differs from before the restart", id)
		}
		if raw, err = resultBytes(res); err != nil {
			return nil, err
		}
		parts = append(parts, raw)
	}
	return parts, nil
}

// runRestart1M restarts a daemon over one data dir again and again, at
// least sz.minCycles times and while another cycle fits in the measured
// time. A cycle is one operation; its latency runs from opening the store
// to the first recovered result, fully read. Cycles take the jobs' results
// in turn, in an order drawn from --seed.
func runRestart1M(b *bench) error {
	f, err := startFront()
	if err != nil {
		return err
	}
	defer f.stop()
	var data *restartData
	rep := 0
	teardown, err := b.setup(func() (func(), error) {
		dir := filepath.Join(b.dir, fmt.Sprintf("restart-%d", rep))
		rep++
		d, err := b.writeRestartDir(dir)
		if err != nil {
			return nil, err
		}
		_, _, srv, disk, err := f.restartOnce(dir, d.jobs[0], false)
		if err == nil {
			err = f.stopServer(srv, disk)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up restart: %w", err)
		}
		data = d
		return func() { os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return err
	}
	defer teardown()

	order := rand.New(rand.NewSource(b.seed)).Perm(len(data.jobs))
	var cycles, untraced []restart
	var first []float64
	m := startMeter()
	start := time.Now()
	for c := 0; ; c++ {
		t0 := time.Now()
		id := data.jobs[order[c%len(order)]]
		split := b.trace && c%2 == 1
		r, body, srv, disk, err := f.restartOnce(data.dir, id, split)
		if err != nil {
			return fmt.Errorf("restart %d: %w", c, err)
		}
		checked := []string{id}
		if c == 0 {
			checked = append(checked, slices.DeleteFunc(slices.Clone(data.jobs), func(j string) bool { return j == id })...)
		}
		parts, err := f.checkRecovered(data, checked, body)
		if c == 0 && err == nil {
			b.digest = digestOf(parts)
		}
		if serr := f.stopServer(srv, disk); err == nil {
			err = serr
		}
		b.op(err)
		if split {
			cycles = append(cycles, r)
		} else {
			untraced = append(untraced, r)
			first = append(first, latencyOf(r.first, err))
		}
		if c+1 >= b.sz.minCycles && time.Since(start)+time.Since(t0) > b.seconds {
			break
		}
	}
	use := m.finish()
	if b.trace {
		return b.traceRestart(f, data, cycles, untraced)
	}
	var recovered []float64
	for _, r := range untraced {
		recovered = append(recovered, ms(r.total))
	}
	b.endToEndMetrics(first, use, len(untraced))
	b.reportDist("recover_ms_p50", "ms", recovered)
	return nil
}

// traceRestart reports restart-1m's per-layer split from the traced
// (odd) cycles, the data dir's footprint, the heap a recovered server
// holds, and replays of the recovery calls on the big host.
func (b *bench) traceRestart(f *front, d *restartData, traced, untraced []restart) error {
	var open, rec, total, plain []float64
	for _, r := range traced {
		open, rec, total = append(open, ms(r.openDisk)), append(rec, ms(r.recover)), append(total, ms(r.total))
	}
	for _, r := range untraced {
		plain = append(plain, ms(r.total))
	}
	b.reportDist("store.open_disk_ms", "ms", open)
	b.reportDist("serve.recover_ms", "ms", rec)
	if err := withinTenPercent("open_disk + recover", mean(open)+mean(rec), mean(total)); err != nil {
		b.problem(err)
	}
	b.report("trace.overhead", "ratio", percentile(total, 500)/percentile(plain, 500)-1, nil)
	b.report("restart.mapped_graphs", "count", float64(traced[len(traced)-1].rs.Mapped), nil)

	var all, images int64
	err := filepath.WalkDir(d.dir, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err != nil {
			return err
		}
		all += info.Size()
		if filepath.Dir(path) != d.dir {
			images += info.Size() // outside the log and its index: the file tier
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.report("restart.data_dir_mib", "MiB", float64(all)/(1<<20), nil)
	b.report("restart.image_mib", "MiB", float64(images)/(1<<20), nil)

	_, _, srv, disk, err := f.restartOnce(d.dir, d.jobs[0], false)
	if err != nil {
		return err
	}
	runtime.GC()
	b.report("restart.heap_after_recover_mib", "MiB", heapMiB(), nil)
	if err := f.stopServer(srv, disk); err != nil {
		return err
	}

	big := bigHost(b.sz.bigN)
	spg1 := big.AppendBinary(nil)
	img := filepath.Join(b.dir, "replay.spc1")
	if err := graph.WriteImageFile(big, img); err != nil {
		return err
	}
	defer os.Remove(img)
	var rerr error
	b.reportDist("graph.spg1_decode_ms", "ms", timeReps(3, 200*time.Millisecond, func() {
		if _, err := graph.DecodeBinary(spg1); err != nil {
			rerr = err
		}
	}))
	b.reportDist("graph.image_open_ms", "ms", timeReps(3, 200*time.Millisecond, func() {
		m, err := graph.OpenMapped(img)
		if err != nil {
			rerr = err
			return
		}
		m.Close()
	}))
	b.reportDist("serve.fingerprint_1m_ms", "ms", timeReps(3, 200*time.Millisecond, func() { serve.FingerprintGraph(big) }))
	return rerr
}

package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// tinySizes runs every workload's code path, checks included, in a few
// seconds.
func tinySizes() sizes {
	return sizes{
		setupReps:     2,
		gidTrialSeeds: 3, gidMinTrials: 2, gidWarm: 1,
		baN: 400, baPool: 3,
		traffic: 2,
		bigN:    2000, smallHosts: 3, jobs: 4, minCycles: 4,
	}
}

// TestWorkloadsTiny runs each workload end to end at the tiny size, both
// untraced and traced, and requires a correct run that reports every
// metric it declares.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			name := w.name
			if trace {
				name += "/trace"
			}
			t.Run(name, func(t *testing.T) {
				b := &bench{seed: 5, seconds: time.Second, trace: trace, sz: tinySizes(), dir: t.TempDir()}
				if err := w.run(b); err != nil {
					t.Fatal(err)
				}
				if !b.correct() || b.attempted == 0 {
					t.Fatalf("attempted %d, failed %d, problems: %v", b.attempted, b.failed, b.problems)
				}
				if len(b.digest) == 0 {
					t.Error("no result digest")
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				var out bytes.Buffer
				if err := b.print(&out, outFile{Workload: w.name}, ""); err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var final resultLine
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
					t.Fatalf("last line is not the result object: %v", err)
				}
				if len(final.Metrics) != len(defs) || !final.Correct {
					t.Fatalf("result object: %d metrics (want %d), correct %v", len(final.Metrics), len(defs), final.Correct)
				}
				if !trace {
					for _, d := range defs {
						if final.Metrics[d.name].Value <= 0 {
							t.Errorf("%s = %v; end-to-end metrics are never 0", d.name, final.Metrics[d.name].Value)
						}
					}
				}
			})
		}
	}
}

// TestWorkloadsDeterministic runs each workload twice on one seed: the
// result digests must match.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			var digests []string
			for range 2 {
				b := &bench{seed: 9, seconds: 200 * time.Millisecond, sz: tinySizes(), dir: t.TempDir()}
				if err := w.run(b); err != nil {
					t.Fatal(err)
				}
				digests = append(digests, string(b.digest))
			}
			if digests[0] != digests[1] {
				t.Fatal("result digest differs between two runs of the same seed")
			}
		})
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json at the repository root in
// step with the workloads and metrics this program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		json []struct{ Name, Unit, Better string }
		defs []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.defs))
		}
		for i, m := range c.json {
			if d := c.defs[i]; m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
				t.Errorf("metric %d: BENCHMARK.json %v, program %v", i, m, d)
			}
		}
	}
}

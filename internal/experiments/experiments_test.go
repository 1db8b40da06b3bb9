package experiments

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestReportRender(t *testing.T) {
	r := &Report{
		ID:     "demo",
		Title:  "demo title",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
		Notes:  []string{"a note"},
	}
	var buf bytes.Buffer
	r.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo title", "333", "a note", "--"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every experiment in DESIGN.md's index must be registered.
	want := []string{
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
		"fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
		"fig19", "fig20", "fig21", "appC3", "appC4", "lemma2", "ablations",
	}
	for _, id := range want {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment %s not registered", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := RunContext(context.Background(), "nope", Params{}); err == nil {
		t.Fatal("expected error")
	}
}

func TestLemma2Report(t *testing.T) {
	rep := Lemma2Table()
	if len(rep.Rows) < 5 {
		t.Fatal("too few rows")
	}
	// The paper's example row must show M near 85.
	if rep.Rows[0][4] != "86" && rep.Rows[0][4] != "85" {
		t.Fatalf("paper example M = %s", rep.Rows[0][4])
	}
}

func TestFig4Shape(t *testing.T) {
	rep := Fig4to8(context.Background(), 1, 42, 0)
	if len(rep.Rows) == 0 {
		t.Fatal("no rows")
	}
	// SpiderMine column (index 1) must have mass at size >= 20;
	// SEuS column (index 3) must not.
	smLarge, seusLarge := false, false
	for _, row := range rep.Rows {
		size := atoiOr(row[0])
		if size >= 20 {
			if row[1] != "0" {
				smLarge = true
			}
			if row[3] != "0" {
				seusLarge = true
			}
		}
	}
	if !smLarge {
		t.Fatal("SpiderMine found no large patterns on GID 1")
	}
	if seusLarge {
		t.Fatal("SEuS should not find large patterns")
	}
}

func TestFig9QuickShape(t *testing.T) {
	rep := Fig9(context.Background(), []int{100, 200}, 1, 2*time.Second, 0)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows %d", len(rep.Rows))
	}
}

func TestAppC3Growth(t *testing.T) {
	rep := AppC3(context.Background(), []int{1, 2}, 1, 0.4)
	if len(rep.Rows) != 2 {
		t.Fatal("rows")
	}
	// spider count must grow with r
	if atoiOr(rep.Rows[1][1]) <= atoiOr(rep.Rows[0][1]) {
		t.Fatalf("r=2 should mine more spiders: %s vs %s", rep.Rows[1][1], rep.Rows[0][1])
	}
}

func TestAblationsReport(t *testing.T) {
	rep := Ablations(context.Background(), 42, 0)
	if len(rep.Rows) != 4 {
		t.Fatalf("ablation variants %d, want 4", len(rep.Rows))
	}
	// baseline must skip at least as many iso tests as the no-pruning run
	// (which skips none).
	if rep.Rows[1][4] != "0" {
		t.Fatalf("no-pruning variant skipped %s tests", rep.Rows[1][4])
	}
}

func TestFig19SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := Fig19(context.Background(), []int{1, 2}, 1, 0.05, 0)
	if len(rep.Rows) != 2 {
		t.Fatal("rows")
	}
	// d=1 means Dmax=2: top patterns must respect it (column 1 is |V|).
	if rep.Rows[0][1] == "" {
		t.Fatal("empty cell")
	}
}

func atoiOr(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestMinersFacadeExperiment(t *testing.T) {
	rep, err := RunContext(context.Background(), "miners", Params{Seed: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) < 6 {
		t.Fatalf("miners report has %d rows, want one per registered miner (>= 6)", len(rep.Rows))
	}
	for _, row := range rep.Rows {
		if row[1] == "-" || row[1] == "0" {
			t.Errorf("miner %s returned no patterns through the façade (row %v)", row[0], row)
		}
	}
}

func TestRunContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunContext(ctx, "lemma2", Params{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextLiveContext: RunContext with a real (cancellable,
// non-Background) context must work, back to back with Background runs.
func TestRunContextLiveContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	if _, err := RunContext(ctx, "lemma2", Params{}); err != nil {
		t.Fatal(err)
	}
	// And back-to-back with a Background run, both directions.
	if _, err := RunContext(context.Background(), "lemma2", Params{}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunContext(ctx, "lemma2", Params{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextCutRunReportsDeadline: a run its deadline cut returns its
// partial report together with the deadline's error, so no caller judges
// a cut run as a whole one (quick fig9 mines for seconds uncut).
func TestRunContextCutRunReportsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	rep, err := RunContext(ctx, "fig9", Params{Seed: 1, Quick: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if rep == nil || len(rep.Rows) == 0 {
		t.Fatalf("cut run returned no partial report: %+v", rep)
	}
}

// TestRunContextConcurrentKeepsDeadline: two runs in flight keep their own
// contexts. A Background run started next to a deadlined one must not
// lift the deadline, so quick fig9 still returns soon after its 200 ms.
func TestRunContextConcurrentKeepsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	lemma := make(chan error, 1)
	time.AfterFunc(20*time.Millisecond, func() {
		_, err := RunContext(context.Background(), "lemma2", Params{Seed: 1, Quick: true})
		lemma <- err
	})
	t0 := time.Now()
	_, err := RunContext(ctx, "fig9", Params{Seed: 1, Quick: true})
	if el := time.Since(t0); el > 2*time.Second {
		t.Errorf("fig9 under a 200ms deadline returned after %v, want < 2s", el)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("fig9 err = %v, want context.DeadlineExceeded", err)
	}
	if err := <-lemma; err != nil {
		t.Errorf("lemma2 under Background: %v", err)
	}
}

// TestRunContextWorkersKeepReport: quick fig4 run side by side at 1 and 2
// workers renders the same report; each run mines with its own count.
func TestRunContextWorkersKeepReport(t *testing.T) {
	workers := []int{1, 2}
	out := make([]bytes.Buffer, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var rep *Report
			rep, errs[i] = RunContext(context.Background(), "fig4", Params{Seed: 1, Quick: true, Workers: w})
			if rep != nil {
				rep.Render(&out[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("workers=%d: %v", workers[i], err)
		}
	}
	if out[0].String() != out[1].String() {
		t.Fatalf("fig4 differs across worker counts:\n1 worker:\n%s\n2 workers:\n%s", out[0].String(), out[1].String())
	}
}

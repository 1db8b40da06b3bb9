package experiments

import (
	"context"
	"strings"
	"testing"
	"time"
)

func TestCellParsers(t *testing.T) {
	if cellInt(" 42 ") != 42 || cellInt("-") != -1 || cellInt("x") != -1 {
		t.Fatal("cellInt wrong")
	}
	if cellDur("1.5s") != 1500*time.Millisecond || cellDur("-") != 0 {
		t.Fatal("cellDur wrong")
	}
	if ratio(2*time.Second, time.Second) != 2 || ratio(time.Second, 0) != 0 {
		t.Fatal("ratio wrong")
	}
}

func TestClaimsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Claims() {
		if c.ID == "" || c.Statement == "" || c.Check == nil {
			t.Fatalf("malformed claim %+v", c)
		}
		if _, ok := Registry[c.ID]; !ok {
			t.Fatalf("claim %s references unknown experiment", c.ID)
		}
		seen[c.ID] = true
	}
	// The headline artifacts must all carry claims.
	for _, id := range []string{"fig4", "fig11", "fig16", "fig18", "lemma2", "appC3", "appC4"} {
		if !seen[id] {
			t.Errorf("no claim for %s", id)
		}
	}
}

func TestClaimChecksOnSyntheticReports(t *testing.T) {
	// lemma2's claim against the real (cheap) report.
	rep := Lemma2Table()
	for _, c := range Claims() {
		if c.ID == "lemma2" {
			if err := c.Check(rep); err != nil {
				t.Fatalf("lemma2 claim failed: %v", err)
			}
		}
	}
	// fig18's claim on a fabricated report: in-band sizes pass, a wild
	// outlier fails.
	var fig18 Claim
	for _, c := range Claims() {
		if c.ID == "fig18" {
			fig18 = c
		}
	}
	ok := &Report{Rows: [][]string{{"6", "50"}, {"7", "60"}, {"8", "55"}}}
	if err := fig18.Check(ok); err != nil {
		t.Fatalf("in-band sizes rejected: %v", err)
	}
	bad := &Report{Rows: [][]string{{"6", "10"}, {"7", "60"}}}
	if err := fig18.Check(bad); err == nil {
		t.Fatal("outlier accepted")
	}
	missing := &Report{Rows: [][]string{{"6", "-"}}}
	if err := fig18.Check(missing); err == nil {
		t.Fatal("missing pattern accepted")
	}
}

func TestVerifyAllCheapSubset(t *testing.T) {
	// Running every claim is the CLI's job; here exercise the machinery on
	// the cheap claims by filtering the registry through a fake params.
	lines, _ := verifySubset(Params{Seed: 1, Quick: true}, map[string]bool{"lemma2": true})
	if len(lines) == 0 {
		t.Fatal("no lines")
	}
}

// TestVerifyAllHonorsContext: VerifyAll runs its claims under the
// caller's context, so a fired one fails every claim with its error and
// mines nothing (spiderbench -verify -timeout relies on this).
func TestVerifyAllHonorsContext(t *testing.T) {
	var runs int
	saved := Registry
	Registry = make(map[string]Runner, len(saved))
	for id, r := range saved {
		Registry[id] = func(ctx context.Context, p Params) *Report { runs++; return r(ctx, p) }
	}
	defer func() { Registry = saved }()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lines, failures := VerifyAll(ctx, Params{Seed: 1, Quick: true})
	if n := len(Claims()); failures != n || len(lines) != n {
		t.Fatalf("%d failures in %d lines, want %d of each", failures, len(lines), n)
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, "FAIL ") || !strings.HasSuffix(l, ": context canceled") {
			t.Errorf("line %q, want a context-canceled FAIL", l)
		}
	}
	if runs != 0 {
		t.Fatalf("%d experiments ran under a cancelled context, want 0", runs)
	}
}

// verifySubset mirrors VerifyAll for a subset of claim ids (test helper).
func verifySubset(p Params, ids map[string]bool) (lines []string, failures int) {
	cache := map[string]*Report{}
	for _, c := range Claims() {
		if !ids[c.ID] {
			continue
		}
		rep, ok := cache[c.ID]
		if !ok {
			var err error
			rep, err = RunContext(context.Background(), c.ID, p)
			if err != nil {
				failures++
				continue
			}
			cache[c.ID] = rep
		}
		if err := c.Check(rep); err != nil {
			failures++
			lines = append(lines, "FAIL "+c.ID)
		} else {
			lines = append(lines, "PASS "+c.ID)
		}
	}
	return lines, failures
}

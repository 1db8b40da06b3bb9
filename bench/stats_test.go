package main

import (
	"math/rand"
	"testing"
)

// bruteRank is the nearest-rank percentile by its definition, without
// sorting: the smallest sample x with at least pm/1000 of all samples at
// or below it.
func bruteRank(xs []float64, pm int) float64 {
	best, found := 0.0, false
	for _, x := range xs {
		atOrBelow := 0
		for _, y := range xs {
			if y <= x {
				atOrBelow++
			}
		}
		if atOrBelow*1000 >= pm*len(xs) && (!found || x < best) {
			best, found = x, true
		}
	}
	return best
}

func TestPercentileMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pms := append([]int{1, 250, 500, 750, 1000}, tailLadder...)
	for _, n := range []int{1, 2, 3, 7, 10, 99, 100, 300, 500, 600, 1000} {
		for _, ties := range []bool{false, true} {
			xs := make([]float64, n)
			for i := range xs {
				if ties {
					xs[i] = float64(rng.Intn(5))
				} else {
					xs[i] = rng.ExpFloat64()
				}
			}
			for _, pm := range pms {
				if got, want := percentile(xs, pm), bruteRank(xs, pm); got != want {
					t.Errorf("n=%d ties=%v p%g: percentile %v, brute force %v", n, ties, float64(pm)/10, got, want)
				}
			}
		}
	}
}

func TestPercentileDoesNotReorderInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	percentile(xs, 500)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

// TestTailPerMille pins the "highest percentile with at least ten
// samples beyond it" rule at the sample counts the tails are named for:
// p95 at n=300 (a serve-mixed phase at --seconds 15), p98 at n=500
// (gid1-sweep's minimum) and n=600, p99 at n=1000 (a serve-mixed phase at
// --seconds 30 and 50).
func TestTailPerMille(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int
		ok   bool
	}{
		{8, 0, false}, {19, 0, false}, {20, 500, true}, {100, 900, true},
		{199, 900, true}, {200, 950, true}, {300, 950, true}, {500, 980, true},
		{600, 980, true}, {999, 980, true}, {1000, 990, true}, {10000, 999, true},
	} {
		pm, ok := tailPerMille(tc.n)
		if pm != tc.want || ok != tc.ok {
			t.Errorf("tailPerMille(%d) = %d, %v; want %d, %v", tc.n, pm, ok, tc.want, tc.ok)
		}
	}
	// With distinct samples, exactly n − rank of them lie beyond the tail.
	for _, n := range []int{300, 500, 600, 1000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		pm, _ := tailPerMille(n)
		tail := percentile(xs, pm)
		beyond := 0
		for _, x := range xs {
			if x > tail {
				beyond++
			}
		}
		if beyond < minBeyond || beyond != n-rank(pm, n) {
			t.Errorf("n=%d p%g: %d samples beyond, rank says %d", n, float64(pm)/10, beyond, n-rank(pm, n))
		}
	}
}

// TestTailOf pins the names and values the tail metrics carry, including
// the fallback to the slowest sample below 20 samples (ba5k-par's runs).
func TestTailOf(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, tc := range []struct {
		n    int
		at   string
		want float64
	}{{0, "max", 0}, {6, "max", 6}, {19, "max", 19}, {20, "p50", 10}, {100, "p90", 90}, {500, "p98", 490}, {1000, "p99", 990}} {
		if at, v := tailOf(seq(tc.n)); at != tc.at || v != tc.want {
			t.Errorf("tailOf(n=%d) = %s %v, want %s %v", tc.n, at, v, tc.at, tc.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s != (summary{N: 4, P25: 1, Median: 2, P75: 3}) {
		t.Fatalf("summarize = %+v", s)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Fatalf("summarize(nil) = %+v", s)
	}
}

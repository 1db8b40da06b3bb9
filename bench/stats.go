package main

import (
	"fmt"
	"slices"
)

// Exact order statistics over raw samples. A percentile is the
// nearest-rank one: the p-th percentile of n samples is the sample of
// rank ⌈p·n⌉ in sorted order. Every reported value is therefore one that
// was measured, and "k samples beyond it" is exact arithmetic (n − rank)
// rather than an interpolation inside a histogram bucket. Percentiles
// are given in per mille so the rank arithmetic stays in integers.

// rank returns the 1-based nearest rank of per-mille percentile pm among
// n samples.
func rank(pm, n int) int {
	return max((pm*n+999)/1000, 1)
}

// percentile returns the nearest-rank per-mille percentile of xs, which
// need not be sorted. It returns 0 for no samples.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank(pm, len(s))-1]
}

// tailLadder is the set of percentiles (per mille) a tail is reported at.
var tailLadder = []int{500, 750, 900, 950, 980, 990, 999}

// minBeyond is how many samples must lie beyond a reported tail
// percentile for it to say something about the tail.
const minBeyond = 10

// tailPerMille returns the highest ladder percentile with at least
// minBeyond samples beyond it among n samples; ok is false when even the
// median has fewer.
func tailPerMille(n int) (pm int, ok bool) {
	for _, p := range tailLadder {
		if n-rank(p, n) >= minBeyond {
			pm, ok = p, true
		}
	}
	return pm, ok
}

// tailOf returns the tail of xs by that rule, named for its percentile
// ("p98"). Below 2·minBeyond samples no percentile qualifies, and it
// returns the slowest sample, named "max".
func tailOf(xs []float64) (at string, v float64) {
	if pm, ok := tailPerMille(len(xs)); ok {
		return fmt.Sprintf("p%g", float64(pm)/10), percentile(xs, pm)
	}
	if len(xs) == 0 {
		return "max", 0
	}
	return "max", slices.Max(xs)
}

// summary is the spread every reported metric carries: the sample count
// and the quartiles of the samples behind it.
type summary struct {
	N      int     `json:"n"`
	P25    float64 `json:"p25"`
	Median float64 `json:"median"`
	P75    float64 `json:"p75"`
}

func summarize(xs []float64) summary {
	return summary{N: len(xs), P25: percentile(xs, 250), Median: percentile(xs, 500), P75: percentile(xs, 750)}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

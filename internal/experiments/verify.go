package experiments

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Claim is one qualitative statement the paper's evaluation makes about an
// artifact — "who wins, by roughly what factor, where behaviour changes".
// Verify checks the claim against a regenerated Report.
type Claim struct {
	ID        string // experiment id the claim is checked against
	Statement string
	Check     func(*Report) error
}

// Claims lists the paper's headline claims, one or more per artifact.
// These are the machine-checkable versions of the "expected shape" notes.
func Claims() []Claim {
	return []Claim{
		{
			ID:        "fig4",
			Statement: "SpiderMine recovers large (≥20-vertex) patterns on GID 1; SEuS stays ≤4",
			Check: func(r *Report) error {
				smLarge := false
				for _, row := range r.Rows {
					size := cellInt(row[0])
					if size >= 20 && cellInt(row[1]) > 0 {
						smLarge = true
					}
					if size > 4 && cellInt(row[3]) > 0 {
						return fmt.Errorf("SEuS found a size-%d pattern", size)
					}
				}
				if !smLarge {
					return fmt.Errorf("SpiderMine found no pattern with >= 20 vertices")
				}
				return nil
			},
		},
		{
			ID:        "fig6",
			Statement: "with high-support small patterns (GID 3), SUBDUE's mass shifts to sizes ≤ 6",
			Check: func(r *Report) error {
				for _, row := range r.Rows {
					if size := cellInt(row[0]); size > 6 && cellInt(row[2]) > 0 {
						return fmt.Errorf("SUBDUE found a size-%d pattern on noisy data", size)
					}
				}
				return nil
			},
		},
		{
			ID:        "fig9",
			Statement: "MoSS (complete mining) is slower than SpiderMine at the largest size, or aborts",
			Check: func(r *Report) error {
				last := r.Rows[len(r.Rows)-1]
				smT, moT := cellDur(last[1]), cellDur(last[2])
				if strings.Contains(last[3], "false") {
					return nil // aborted: the stronger form of the claim
				}
				if moT <= smT {
					return fmt.Errorf("MoSS (%v) not slower than SpiderMine (%v)", moT, smT)
				}
				return nil
			},
		},
		{
			ID:        "fig10",
			Statement: "SUBDUE runtime grows faster with |V| than SpiderMine runtime",
			Check: func(r *Report) error {
				if len(r.Rows) < 2 {
					return fmt.Errorf("need at least 2 sizes")
				}
				first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
				smRatio := ratio(cellDur(last[1]), cellDur(first[1]))
				sdRatio := ratio(cellDur(last[2]), cellDur(first[2]))
				if sdRatio <= smRatio {
					return fmt.Errorf("SUBDUE growth %.1fx vs SpiderMine %.1fx", sdRatio, smRatio)
				}
				return nil
			},
		},
		{
			ID:        "fig11",
			Statement: "SpiderMine runtime stays near-linear in |V| (growth factor ≤ 4x the size factor)",
			Check: func(r *Report) error {
				first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
				sizeFactor := float64(cellInt(last[0])) / float64(cellInt(first[0]))
				timeFactor := ratio(cellDur(last[1]), cellDur(first[1]))
				if timeFactor > 4*sizeFactor {
					return fmt.Errorf("runtime grew %.1fx over a %.1fx size increase", timeFactor, sizeFactor)
				}
				return nil
			},
		},
		{
			ID:        "fig12",
			Statement: "the largest discovered pattern grows with |V|",
			Check: func(r *Report) error {
				first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
				if cellInt(last[2]) <= cellInt(first[2]) {
					return fmt.Errorf("largest pattern did not grow: %s -> %s vertices", first[2], last[2])
				}
				return nil
			},
		},
		{
			ID:        "fig15",
			Statement: "with 100 small patterns injected, SpiderMine still returns larger patterns than ORIGAMI",
			Check: func(r *Report) error {
				smMax, orMax := 0, 0
				for _, row := range r.Rows {
					size := cellInt(row[0])
					if cellInt(row[1]) > 0 && size > smMax {
						smMax = size
					}
					if cellInt(row[2]) > 0 && size > orMax {
						orMax = size
					}
				}
				if smMax <= orMax {
					return fmt.Errorf("SpiderMine max %d <= ORIGAMI max %d", smMax, orMax)
				}
				return nil
			},
		},
		{
			ID:        "fig16",
			Statement: "SpiderMine completes on every GID; complete mining (MoSS) aborts on at least one",
			Check: func(r *Report) error {
				aborted := 0
				for _, row := range r.Rows {
					if row[4] == "-" {
						aborted++
					}
				}
				if aborted == 0 {
					return fmt.Errorf("MoSS completed on all GIDs (paper: '-' on 2, 4, 5)")
				}
				return nil
			},
		},
		{
			ID:        "fig17",
			Statement: "the number of r-spiders grows superlinearly with scale-free graph size",
			Check: func(r *Report) error {
				first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
				sizeFactor := float64(cellInt(last[1])) / float64(max(cellInt(first[1]), 1))
				spiderFactor := float64(cellInt(last[2])) / float64(max(cellInt(first[2]), 1))
				if spiderFactor < sizeFactor {
					return fmt.Errorf("spiders grew %.1fx over %.1fx edges", spiderFactor, sizeFactor)
				}
				return nil
			},
		},
		{
			ID:        "fig18",
			Statement: "top-1 pattern sizes stay within a 3x band across GID 6-10 (robustness)",
			Check: func(r *Report) error {
				lo, hi := 1<<30, 0
				for _, row := range r.Rows {
					s := cellInt(row[1])
					if s <= 0 {
						return fmt.Errorf("GID %s returned no pattern", row[0])
					}
					if s < lo {
						lo = s
					}
					if s > hi {
						hi = s
					}
				}
				if hi > 3*lo {
					return fmt.Errorf("top-1 sizes range %d..%d exceeds 3x band", lo, hi)
				}
				return nil
			},
		},
		{
			ID:        "fig19",
			Statement: "results are stable in Dmax except when too small (d=1 ≤ d≥2 sizes)",
			Check: func(r *Report) error {
				if len(r.Rows) < 2 {
					return fmt.Errorf("need >= 2 Dmax settings")
				}
				d1 := cellInt(r.Rows[0][1])
				d2 := cellInt(r.Rows[1][1])
				if d1 > d2 {
					return fmt.Errorf("d=1 found larger patterns (%d) than d=2 (%d)", d1, d2)
				}
				return nil
			},
		},
		{
			ID:        "appC3",
			Statement: "Stage I cost explodes with spider radius r (≥5x per +1)",
			Check: func(r *Report) error {
				if len(r.Rows) < 2 {
					return fmt.Errorf("need >= 2 radii")
				}
				t1 := cellDur(r.Rows[0][2])
				t2 := cellDur(r.Rows[1][2])
				if ratio(t2, t1) < 5 {
					return fmt.Errorf("r=2 only %.1fx the cost of r=1", ratio(t2, t1))
				}
				return nil
			},
		},
		{
			ID:        "appC4",
			Statement: "smaller ε draws more seeds (M strictly increases as ε decreases)",
			Check: func(r *Report) error {
				prev := -1
				for _, row := range r.Rows {
					m := cellInt(row[1])
					if m <= prev {
						return fmt.Errorf("M not increasing: %d after %d", m, prev)
					}
					prev = m
				}
				return nil
			},
		},
		{
			ID:        "lemma2",
			Statement: "the worked example (ε=0.1, K=10, Vmin=|V|/10) yields M ≈ 85",
			Check: func(r *Report) error {
				m := cellInt(r.Rows[0][4])
				if m < 84 || m > 87 {
					return fmt.Errorf("M=%d", m)
				}
				return nil
			},
		},
		{
			ID:        "fig20",
			Statement: "on the co-authorship network SpiderMine finds ≥10-vertex patterns; SUBDUE stays ≤ 6",
			Check: func(r *Report) error {
				smLarge := false
				for _, row := range r.Rows {
					size := cellInt(row[0])
					if size >= 10 && cellInt(row[1]) > 0 {
						smLarge = true
					}
					if size > 6 && cellInt(row[2]) > 0 {
						return fmt.Errorf("SUBDUE found a size-%d pattern", size)
					}
				}
				if !smLarge {
					return fmt.Errorf("no large collaborative pattern found")
				}
				return nil
			},
		},
		{
			ID:        "fig21",
			Statement: "on the call graph SpiderMine finds motif-sized (≥8-vertex) patterns, strictly larger than SUBDUE's best",
			Check: func(r *Report) error {
				smMax, sdMax := 0, 0
				for _, row := range r.Rows {
					size := cellInt(row[0])
					if cellInt(row[1]) > 0 && size > smMax {
						smMax = size
					}
					if cellInt(row[2]) > 0 && size > sdMax {
						sdMax = size
					}
				}
				if smMax < 8 {
					return fmt.Errorf("no library motif found (max %d)", smMax)
				}
				if smMax <= sdMax {
					return fmt.Errorf("SpiderMine max %d not larger than SUBDUE max %d", smMax, sdMax)
				}
				return nil
			},
		},
		{
			ID:        "ablations",
			Statement: "spider-set pruning skips isomorphism tests without changing the answer",
			Check: func(r *Report) error {
				baseTop, noPruneTop := r.Rows[0][2], r.Rows[1][2]
				if baseTop != noPruneTop {
					return fmt.Errorf("pruning changed top-1 size: %s vs %s", baseTop, noPruneTop)
				}
				if cellInt(r.Rows[1][4]) != 0 {
					return fmt.Errorf("disabled pruning still skipped tests")
				}
				return nil
			},
		},
	}
}

// VerifyAll regenerates each claimed artifact under ctx (caching reports
// shared by multiple claims, an alias's under the id it aliases, so each
// experiment runs at most once) and checks every claim. It returns one
// line per claim, "PASS"/"FAIL"-prefixed, plus the failure count. Once
// ctx fires, every claim not yet run fails with ctx's error, unmined.
func VerifyAll(ctx context.Context, p Params) (lines []string, failures int) {
	cache := map[string]*Report{}
	for _, c := range Claims() {
		id := c.ID
		if to, ok := aliases[id]; ok {
			id = to
		}
		rep, ok := cache[id]
		if !ok {
			var err error
			rep, err = RunContext(ctx, id, p)
			if err != nil {
				lines = append(lines, fmt.Sprintf("FAIL %s: %v", c.ID, err))
				failures++
				continue
			}
			cache[id] = rep
		}
		if err := c.Check(rep); err != nil {
			lines = append(lines, fmt.Sprintf("FAIL %s: %s — %v", c.ID, c.Statement, err))
			failures++
		} else {
			lines = append(lines, fmt.Sprintf("PASS %s: %s", c.ID, c.Statement))
		}
	}
	return lines, failures
}

func cellInt(s string) int {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil {
		return -1
	}
	return n
}

func cellDur(s string) time.Duration {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0
	}
	return d
}

func ratio(a, b time.Duration) float64 {
	if b <= 0 {
		return 0
	}
	return float64(a) / float64(b)
}

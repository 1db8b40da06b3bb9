// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5 and Appendix C). Each driver generates its
// workload, runs the competing miners, and returns a Report whose rows
// mirror what the paper plots. Drivers accept a Scale factor so tests and
// quick benchmark runs can shrink the workloads; Scale=1 reproduces the
// paper's sizes.
//
// Every driver that mines takes the run's context and worker count as
// arguments, and the package holds no run state, so several runs may be
// in flight at once, each under its own deadline. Drivers call each
// engine through its context entry point and drop the engine's error: a
// fired context leaves the engines' committed partial results in the
// report, and RunContext returns that partial report together with the
// context's error, so a cut run is never judged as a whole one.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/pattern"
)

// Report is the tabular result of one experiment.
type Report struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render writes the report as an aligned text table.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(r.Header)
	sep := make([]string, len(r.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// SizeHistogram counts patterns by vertex count, the quantity Figures 4–8,
// 20 and 21 plot.
func SizeHistogram(ps []*pattern.Pattern) map[int]int {
	h := make(map[int]int)
	for _, p := range ps {
		h[p.NV()]++
	}
	return h
}

// histogramRows renders one row per observed size with one count column
// per algorithm, sizes ascending — the paper's bar-chart data.
func histogramRows(names []string, hists []map[int]int) ([]string, [][]string) {
	header := append([]string{"pattern size |V|"}, names...)
	sizeSet := make(map[int]struct{})
	for _, h := range hists {
		for s := range h {
			sizeSet[s] = struct{}{}
		}
	}
	sizes := make([]int, 0, len(sizeSet))
	for s := range sizeSet {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	var rows [][]string
	for _, s := range sizes {
		row := []string{fmt.Sprintf("%d", s)}
		for _, h := range hists {
			row = append(row, fmt.Sprintf("%d", h[s]))
		}
		rows = append(rows, row)
	}
	return header, rows
}

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func itoa(x int) string   { return fmt.Sprintf("%d", x) }
func i64a(x int64) string { return fmt.Sprintf("%d", x) }
func scaled(x int, scale float64) int {
	v := int(float64(x) * scale)
	if v < 1 {
		v = 1
	}
	return v
}

package obs

import (
	"bufio"
	"io"
	"strconv"
	"strings"
)

// WritePrometheus renders every registered family in the Prometheus
// text exposition format (text/plain; version 0.0.4): a # HELP and
// # TYPE line per family, counter/gauge samples as bare numbers,
// histograms as cumulative le-bucket series plus _sum and _count.
// Families appear in registration order (stable across scrapes);
// vec children in sorted label order. Histogram bucket bounds and sums
// are exported in the family's scaled unit (seconds for duration
// histograms), per Prometheus base-unit convention.
func (r *Registry) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, m := range r.collect() {
		name := m.name
		if m.help != "" {
			bw.WriteString("# HELP ")
			bw.WriteString(name)
			bw.WriteByte(' ')
			bw.WriteString(escapeHelp(m.help))
			bw.WriteByte('\n')
		}
		bw.WriteString("# TYPE ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(m.kind)
		bw.WriteByte('\n')
		switch {
		case m.children != nil:
			for i, c := range m.kids {
				if c.counter != nil {
					writeSample(bw, name, m.label, m.labels[i], "", float64(c.counter.Value()))
				} else {
					writeHistogram(bw, name, m.label, m.labels[i], c.histogram)
				}
			}
		case m.counter != nil:
			writeSample(bw, name, "", "", "", float64(m.counter.Value()))
		case m.counterFn != nil:
			writeSample(bw, name, "", "", "", float64(m.counterFn()))
		case m.gaugeFn != nil:
			writeSample(bw, name, "", "", "", m.gaugeFn())
		case m.gauge != nil:
			writeSample(bw, name, "", "", "", float64(m.gauge.Value()))
		case m.histogram != nil:
			writeHistogram(bw, name, "", "", m.histogram)
		}
	}
	return bw.Flush()
}

// writeSample emits `name{label="value"} v` (label optional, an extra
// le pair for histogram buckets).
func writeSample(w *bufio.Writer, name, label, value, le string, v float64) {
	w.WriteString(name)
	if label != "" || le != "" {
		w.WriteByte('{')
		if label != "" {
			w.WriteString(label)
			w.WriteString(`="`)
			w.WriteString(escapeLabel(value))
			w.WriteByte('"')
			if le != "" {
				w.WriteByte(',')
			}
		}
		if le != "" {
			w.WriteString(`le="`)
			w.WriteString(le)
			w.WriteByte('"')
		}
		w.WriteByte('}')
	}
	w.WriteByte(' ')
	w.WriteString(formatFloat(v))
	w.WriteByte('\n')
}

// writeHistogram emits the cumulative bucket series, _sum and _count
// for one histogram (optionally labelled).
func writeHistogram(w *bufio.Writer, name, label, value string, h *Histogram) {
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(float64(h.bounds[i]) * h.scale)
		}
		writeSample(w, name+"_bucket", label, value, le, float64(cum))
	}
	writeSample(w, name+"_sum", label, value, "", float64(h.sum.Load())*h.scale)
	writeSample(w, name+"_count", label, value, "", float64(cum))
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeHelp(s string) string { return helpEscaper.Replace(s) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }

package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// WriteTo renders the registry in the Prometheus text exposition format
// (version 0.0.4). Families are sorted by name and series by label
// values, so output is deterministic for a given metric state.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	fams := make([]*family, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		fams = append(fams, r.families[name])
	}
	r.mu.RUnlock()

	cw := &countingWriter{w: w}
	for _, f := range fams {
		if err := f.write(cw); err != nil {
			return cw.n, err
		}
	}
	return cw.n, nil
}

// ServeHTTP exposes the registry; mount it at GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	r.WriteTo(w) //nolint:errcheck // client hangup only
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

func (f *family) write(w io.Writer) error {
	f.mu.RLock()
	fn := f.fn
	keys := make([]string, 0, len(f.series))
	for k := range f.series {
		keys = append(keys, k)
	}
	f.mu.RUnlock()
	if len(keys) == 0 && fn == nil {
		return nil
	}
	sort.Strings(keys)

	if f.help != "" {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, escapeHelp(f.help)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
		return err
	}
	if fn != nil {
		// No lock held: the callback may take its owner's locks.
		_, err := fmt.Fprintf(w, "%s %s\n", f.name, fn())
		return err
	}
	for _, key := range keys {
		f.mu.RLock()
		s := f.series[key]
		f.mu.RUnlock()
		if err := f.writeSeries(w, key, s); err != nil {
			return err
		}
	}
	return nil
}

func (f *family) writeSeries(w io.Writer, key string, s *series) error {
	var values []string
	if key != "" || len(f.labels) > 0 {
		values = strings.Split(key, "\x1f")
	}
	lbl := labelString(f.labels, values)
	switch f.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, lbl, s.counter.Value())
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, lbl, formatFloat(s.gauge.Value()))
		return err
	default:
		return f.writeHistogram(w, values, s.hist)
	}
}

// writeHistogram renders the cumulative bucket series plus sum and count.
func (f *family) writeHistogram(w io.Writer, values []string, h *Histogram) error {
	cum := uint64(0)
	counts := h.BucketCounts()
	for i, bound := range h.bounds {
		cum += counts[i]
		lbl := labelString(append(f.labels, "le"), append(values, formatFloat(bound)))
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, cum); err != nil {
			return err
		}
	}
	cum += counts[len(h.bounds)]
	lbl := labelString(append(f.labels, "le"), append(values, "+Inf"))
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, lbl, cum); err != nil {
		return err
	}
	base := labelString(f.labels, values)
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, base, formatFloat(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, base, h.Count())
	return err
}

// labelString renders {k="v",...}, or "" for the unlabeled series.
func labelString(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, name := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		v := ""
		if i < len(values) {
			v = values[i]
		}
		b.WriteString(name)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(h string) string {
	h = strings.ReplaceAll(h, `\`, `\\`)
	return strings.ReplaceAll(h, "\n", `\n`)
}

// formatFloat renders a float the shortest way that round-trips, matching
// the Prometheus convention (1, 0.25, 1e+06).
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

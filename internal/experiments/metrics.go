package experiments

import (
	"fmt"
	"sort"
	"strings"
)

// runMetrics renders what the session's registry holds (turboca, backend
// and fastack scopes) as a regular report, so every sweep ends with the
// counters and distributions its -metrics endpoint shows — for the
// experiments that ran before it, and nothing else the process did.
func runMetrics(s *Session, r *Report) {
	snap := s.reg.Snapshot()
	names := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Rows = append(r.Rows, Row{name, "-", "%.0f", []Value{{name, float64(snap.Counters[name])}}})
	}
	names = names[:0]
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := snap.Histograms[name]
		if h.Count == 0 {
			continue
		}
		r.Rows = append(r.Rows, Row{name, "-",
			"n=%.0f mean=%.1f p50=%.0f p95=%.0f p99=%.0f " + strings.ReplaceAll(h.Unit, "%", "%%"), []Value{
				{name + ".n", float64(h.Count)}, {name + ".mean", h.Mean},
				{name + ".p50", float64(h.P50)}, {name + ".p95", float64(h.P95)}, {name + ".p99", float64(h.P99)}}})
	}
	r.Notes = fmt.Sprintf("scopes: %v; gauges omitted (instantaneous). Wall-time histograms vary by host; value histograms are deterministic per seed.", snap.Scopes())
}

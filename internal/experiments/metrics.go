package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// runMetrics renders the observability activity the session has
// accumulated on the default registry (planner, fastack and littletable
// scopes) as a regular report, so every sweep ends with the counters and
// distributions a live -metrics endpoint would show — for the experiments
// that ran before it, and nothing else the process did earlier.
func runMetrics(s *Session, r *Report) {
	delta := obs.Default().Snapshot().Delta(s.obsBase)
	names := make([]string, 0, len(delta.Counters))
	for name := range delta.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		r.Rows = append(r.Rows, Row{name, "-", "%.0f", []Value{{name, float64(delta.Counters[name])}}})
	}
	names = names[:0]
	for name := range delta.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := delta.Histograms[name]
		if h.Count == 0 {
			continue
		}
		r.Rows = append(r.Rows, Row{name, "-",
			"n=%.0f mean=%.1f p50=%.0f p95=%.0f p99=%.0f " + strings.ReplaceAll(h.Unit, "%", "%%"), []Value{
				{name + ".n", float64(h.Count)}, {name + ".mean", h.Mean},
				{name + ".p50", float64(h.P50)}, {name + ".p95", float64(h.P95)}, {name + ".p99", float64(h.P99)}}})
	}
	r.Notes = fmt.Sprintf("scopes: %v; gauges omitted (instantaneous). Wall-time histograms vary by host; value histograms are deterministic per seed.", delta.Scopes())
}

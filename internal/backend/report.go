package backend

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// Automated reporting (§2.1: the backend "post-processes this data, and
// generates automated reports"). NetworkReport summarises a time window
// the way the dashboard's summary page would: usage, busiest APs, channel
// plan composition, latency/efficiency health, and churn.

// ReportTopN is how many busiest APs a report lists.
const ReportTopN = 5

// APUsage is one row of the busiest-AP list.
type APUsage struct {
	Name    string
	UsageGB float64
	UtilP50 float64
}

// NetworkReport is the rendered summary.
type NetworkReport struct {
	From, To     sim.Time
	TotalUsageTB float64
	BusiestAPs   []APUsage
	// Widths and DFSCount describe the channel plan at report time.
	Widths   map[spectrum.Width]int
	DFSCount int
	// Health metrics over the window.
	TCPLatencyP50     float64
	TCPLatencyP90     float64
	BitrateEffP50     float64
	Switches          int
	RadarEvents       int
	DisruptionSeconds float64
}

// Report builds a NetworkReport over [from, to).
func (b *Backend) Report(from, to sim.Time) NetworkReport {
	r := NetworkReport{
		From: from, To: to,
		Widths:            map[spectrum.Width]int{},
		Switches:          b.switches,
		RadarEvents:       b.radarHit,
		DisruptionSeconds: b.disruptionTotal,
	}
	for _, ap := range b.Scenario.APs {
		r.Widths[ap.Channel.Width]++
		if ap.Channel.DFS {
			r.DFSCount++
		}
	}
	h := b.hist
	if h == nil {
		return r
	}
	r.TotalUsageTB = h.sumBytes(from, to) / 1e12

	// Every AP that ever delivered a report is listed, in name order,
	// before the sort by usage.
	type kv struct {
		ap    int
		bytes float64
	}
	var per []kv
	for _, ap := range h.byName {
		if !b.rows[ap].reported {
			continue
		}
		sum := 0.0
		for _, rec := range h.window(ap, from, to) {
			sum += rec.Bytes
		}
		per = append(per, kv{ap, sum})
	}
	sort.Slice(per, func(i, j int) bool { return per[i].bytes > per[j].bytes })
	for i := 0; i < len(per) && i < ReportTopN; i++ {
		us := APUsage{Name: b.Scenario.APs[per[i].ap].Name, UsageGB: per[i].bytes / 1e9}
		if recs := h.window(per[i].ap, from, to); len(recs) > 0 {
			vals := make([]float64, len(recs))
			for k, rec := range recs {
				vals[k] = rec.Util
			}
			sort.Float64s(vals)
			us.UtilP50 = vals[len(vals)/2]
		}
		r.BusiestAPs = append(r.BusiestAPs, us)
	}

	lat, eff := h.samples(from, to)
	r.TCPLatencyP50 = lat.Median()
	r.TCPLatencyP90 = lat.Percentile(90)
	r.BitrateEffP50 = eff.Median()
	return r
}

// String renders the report for terminals and logs.
func (r NetworkReport) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "network report %v .. %v\n", r.From, r.To)
	fmt.Fprintf(&sb, "  usage: %.3f TB  switches: %d  radar: %d  disruption: %.0fs\n",
		r.TotalUsageTB, r.Switches, r.RadarEvents, r.DisruptionSeconds)
	fmt.Fprintf(&sb, "  tcp latency p50/p90: %.1f/%.1f ms  bitrate eff p50: %.2f\n",
		r.TCPLatencyP50, r.TCPLatencyP90, r.BitrateEffP50)
	var widths []spectrum.Width
	for w := range r.Widths {
		widths = append(widths, w)
	}
	sort.Slice(widths, func(i, j int) bool { return widths[i] < widths[j] })
	fmt.Fprintf(&sb, "  plan:")
	for _, w := range widths {
		fmt.Fprintf(&sb, " %v x%d", w, r.Widths[w])
	}
	fmt.Fprintf(&sb, " (%d on DFS)\n", r.DFSCount)
	fmt.Fprintf(&sb, "  busiest APs:\n")
	for _, ap := range r.BusiestAPs {
		fmt.Fprintf(&sb, "    %-20s %8.2f GB  util p50 %.0f%%\n", ap.Name, ap.UsageGB, 100*ap.UtilP50)
	}
	return sb.String()
}

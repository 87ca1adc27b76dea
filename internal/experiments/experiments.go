// Package experiments is the one place a table or figure of the paper's
// evaluation is run. Index lists every experiment once, in report order;
// each runs against a Session, which memoises the runs several figures
// share, and returns a Report whose rows carry the measured numbers
// themselves — so the paper-vs-measured table (cmd/experiments, the
// content of EXPERIMENTS.md) and the benchmark metrics
// (BenchmarkFigures at the repository root) are two renderings of one
// value and cannot drift apart.
package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/sim"
)

// Value is one measured number. Name is its benchmark-metric unit:
// BenchmarkFigures reports it as b.ReportMetric(V, Name), so it is unique
// within a report and free of whitespace.
type Value struct {
	Name string
	V    float64
}

// Row is one reported metric: the paper's number next to ours.
type Row struct {
	Metric string
	Paper  string
	// Format renders Values, in order, into the measured column.
	Format string
	Values []Value
}

// pct is the Format of a percentage to one decimal.
const pct = "%.1f%%"

// Measured renders the row's values for the report table.
func (r Row) Measured() string {
	args := make([]any, len(r.Values))
	for i, v := range r.Values {
		args[i] = v.V
	}
	return fmt.Sprintf(r.Format, args...)
}

// Report is one experiment's outcome.
type Report struct {
	ID    string // e.g. "Fig 16"
	Title string
	Rows  []Row
	Notes string
	// Detail is the per-point series behind the rows — CDF percentiles,
	// per-client and per-flow lines, per-seed tables — preformatted and
	// rendered only on request (cmd/experiments -detail).
	Detail string
	// Failed marks a report in which a row that must hold did not;
	// cmd/experiments exits 1.
	Failed bool
}

// Options are the two things a caller may choose about a run; every other
// parameter (client counts, durations, seed counts) is a constant of the
// experiment that uses it.
type Options struct {
	Seed int64
	// Quick shrinks simulated durations (CI mode).
	Quick bool
}

// testbedDur returns the per-run simulated duration of the §5.6 lab.
func (o Options) testbedDur() sim.Time {
	if o.Quick {
		return 6 * sim.Second
	}
	return 12 * sim.Second
}

// Experiment is one entry of the Index.
type Experiment struct {
	ID    string
	Title string
	run   func(*Session, *Report)
}

// Run executes the experiment, reusing whatever s has already run.
func (e Experiment) Run(s *Session) Report {
	r := Report{ID: e.ID, Title: e.Title}
	e.run(s, &r)
	return r
}

// Index is every experiment, in EXPERIMENTS.md order: the paper's §3, §4.6
// and §5.6 artifacts, then this repository's own extrapolations, then the
// metrics the selected experiments generated.
var Index = []Experiment{
	{"Fig 1", "Advertised client capabilities (2015 vs 2017)", fig1},
	{"Fig 2", "Channel utilization CDF, networks with >=10 APs", fig2},
	{"Fig 3", "Same-channel interfering APs", fig3},
	{"Fig 4", "Latency and loss by access category", fig4},
	{"Fig 5", "5 GHz bit-rate distribution", fig5},
	{"Table 1", "Configured channel width (all APs / >10-AP networks)", table1},
	{"Fig 6", "One office AP over a day (usage/utilization vs client count)", fig6},
	{"Fig 7", "RSSI PDF at peak vs non-peak (MNet)", fig7},
	{"Table 2", "Daily and peak-hour usage (TB), ReservedCA vs TurboCA", table2},
	{"Fig 8", "TCP latency CDF at MNet", fig8},
	{"Fig 9", "Bit-rate efficiency CDF at MNet", fig9},
	{"Dense", "10x-density deployments (MDU, Stadium), ReservedCA vs TurboCA", dense},
	{"Fig 10", "802.11 latency vs TCP latency (baseline TCP)", fig10},
	{"Fig 14", "Sender congestion window, 10 flows", fig14},
	{"Fig 15", "802.11 aggregation size, 30 clients", fig15},
	{"Fig 16", "Aggregate client throughput", fig16},
	{"Fig 17", "Per-client throughput fairness, 30 clients", fig17},
	{"Fig 18", "Multi-AP deployment (2 APs x 10 clients, 3-seed mean)", fig18},
	{"Oracle", "NBO optimality gap vs exact branch-and-bound (ln NetP)", optimalityGap},
	{"Density", "Client density per AP (802.11ac APs, networks with >=10 APs)", density},
	{"Chaos", "Guarded FastACK vs baseline under seeded data-path faults (2 clients)", chaos},
	{"Uplink", "Reverse-direction traffic: the agent must stay dormant", uplink},
	{"Metrics", "Run metrics (internal/obs)", runMetrics},
}

// normalize folds an experiment ID the way -only matches it: "Fig 16",
// "fig16" and " FIG 16 " are one ID.
func normalize(id string) string {
	return strings.ReplaceAll(strings.ToLower(strings.TrimSpace(id)), " ", "")
}

// Select resolves a comma-separated ID list (cmd/experiments -only) to
// Index entries, in Index order; the empty list selects everything. An ID
// the Index does not have is an error that lists the ones it has.
func Select(only string) ([]Experiment, error) {
	if strings.TrimSpace(only) == "" {
		return Index, nil
	}
	valid := make([]string, len(Index))
	for i, e := range Index {
		valid[i] = normalize(e.ID)
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		id = normalize(id)
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q; valid ids: %s", id, strings.Join(valid, ", "))
		}
		want[id] = true
	}
	var out []Experiment
	for i, e := range Index {
		if want[valid[i]] {
			out = append(out, e)
		}
	}
	return out, nil
}

// Markdown renders reports as the EXPERIMENTS.md body.
func Markdown(reports []Report, detail bool) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "## %s — %s\n\n", r.ID, r.Title)
		fmt.Fprintf(&b, "| metric | paper | measured |\n|---|---|---|\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "| %s | %s | %s |\n", row.Metric, row.Paper, row.Measured())
		}
		if r.Notes != "" {
			fmt.Fprintf(&b, "\n%s\n", r.Notes)
		}
		if detail && r.Detail != "" {
			fmt.Fprintf(&b, "\n```\n%s```\n", r.Detail)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Text renders reports for terminals.
func Text(reports []Report, detail bool) string {
	var b strings.Builder
	for _, r := range reports {
		fmt.Fprintf(&b, "=== %s — %s\n", r.ID, r.Title)
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "  %-32s paper: %-28s measured: %s\n", row.Metric, row.Paper, row.Measured())
		}
		if r.Notes != "" {
			fmt.Fprintf(&b, "  note: %s\n", r.Notes)
		}
		if detail && r.Detail != "" {
			b.WriteString("    " + strings.ReplaceAll(strings.TrimSuffix(r.Detail, "\n"), "\n", "\n    ") + "\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Package repro_test exposes the paper's evaluation as Go benchmarks.
// BenchmarkFigures ranges over internal/experiments' index — the same
// runners, seed and parameters cmd/experiments prints as tables — and
// reports each experiment's measured values via b.ReportMetric, so
//
//	go test -run '^$' -bench 'Figures/Fig16$' -benchtime 1x .
//
// emits exactly the numbers of EXPERIMENTS.md's Fig 16 section. Sub-
// benchmark names are the index IDs without spaces (Fig1 … Fig18, Table1,
// Table2, Dense, Oracle, Density, Chaos, Uplink, Metrics); DESIGN.md §4 is
// the per-experiment index. The ablations (DESIGN.md §5) follow.
package repro_test

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/testbed"
	"repro/internal/topo"
)

// session is shared by every benchmark in the package, so figures that
// read the same run (and the ablations' full-FastACK arm) simulate it once.
var session = experiments.NewSession(experiments.Options{Seed: 42})

// reportFigure runs e as a benchmark body and reports its values.
func reportFigure(b *testing.B, e experiments.Experiment) {
	var r experiments.Report
	for i := 0; i < b.N; i++ {
		r = e.Run(session)
	}
	for _, row := range r.Rows {
		for _, v := range row.Values {
			b.ReportMetric(v.V, v.Name)
		}
	}
}

func BenchmarkFigures(b *testing.B) {
	for _, e := range experiments.Index {
		b.Run(strings.ReplaceAll(e.ID, " ", ""), func(b *testing.B) { reportFigure(b, e) })
	}
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5).

func BenchmarkAblationFastACKNoSuppression(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := session.Testbed(testbed.FastACK, 15, "", nil)
		noSup := session.Testbed(testbed.FastACK, 15, "nosup", func(o *testbed.Options) {
			o.FastACK.DisableSuppression = true
		})
		b.ReportMetric(full.TotalMbps, "full_mbps")
		b.ReportMetric(noSup.TotalMbps, "nosuppress_mbps")
	}
}

func BenchmarkAblationFastACKNoCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		full := session.Testbed(testbed.FastACK, 15, "", nil)
		noCache := session.Testbed(testbed.FastACK, 15, "nocache", func(o *testbed.Options) {
			o.FastACK.DisableCache = true
		})
		b.ReportMetric(full.TotalMbps, "full_mbps")
		b.ReportMetric(noCache.TotalMbps, "nocache_mbps")
	}
}

func BenchmarkAblationNBOHops(b *testing.B) {
	opt, in := plannerInput(topo.Museum(9), 9)
	for i := 0; i < b.N; i++ {
		for _, hops := range [][]int{{0}, {1, 0}, {2, 1, 0}} {
			res := turbocaRun(opt, in, hops, false)
			b.ReportMetric(res, "logNetP_h"+strconv.Itoa(len(hops)))
		}
	}
}

func BenchmarkAblationUniformPick(b *testing.B) {
	opt, in := plannerInput(topo.Museum(10), 9)
	for i := 0; i < b.N; i++ {
		b.ReportMetric(turbocaRun(opt, in, []int{1, 0}, false), "weighted_logNetP")
		b.ReportMetric(turbocaRun(opt, in, []int{1, 0}, true), "uniform_logNetP")
	}
}

func BenchmarkAblationSwitchPenalty(b *testing.B) {
	// Without the penalty term, replanning a stable network churns
	// channels; with it, the plan stays put (§4.3.1 stability).
	opt, in := plannerInput(topo.Office(11), 9)
	for i := 0; i < b.N; i++ {
		b.ReportMetric(float64(turbocaSwitches(opt, in, 0.0)), "switches_nopenalty")
		b.ReportMetric(float64(turbocaSwitches(opt, in, opt.Planner.SwitchPenalty)), "switches_penalty")
	}
}

// BenchmarkAblationDisruption runs a full day of the office under TurboCA
// with and without the switch penalty, comparing total client outage
// seconds (the §4.3.1 stability cost the penalty exists to bound).
func BenchmarkAblationDisruption(b *testing.B) {
	runDay := func(penalty float64) (switches int, disruption float64) {
		engine := sim.NewEngine(13)
		opt := backend.DefaultOptions(backend.AlgTurboCA)
		opt.Planner.SwitchPenalty = penalty
		be := backend.New(opt, topo.Office(13), engine)
		be.Start()
		engine.RunUntil(sim.Day)
		return be.Switches(), be.DisruptionSeconds()
	}
	for i := 0; i < b.N; i++ {
		switches, disruption := runDay(backend.DefaultOptions(backend.AlgTurboCA).Planner.SwitchPenalty)
		b.ReportMetric(float64(switches), "switches_penalty")
		b.ReportMetric(disruption, "disruption_s_penalty")
		switches, disruption = runDay(0)
		b.ReportMetric(float64(switches), "switches_nopenalty")
		b.ReportMetric(disruption, "disruption_s_nopenalty")
	}
}

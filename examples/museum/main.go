// Museum: the §4.6 evaluation in miniature — an MNet-like 300-AP museum
// network runs two simulated days under ReservedCA, then two under
// TurboCA, and the example prints the Table 2 / Fig 8 / Fig 9 metrics
// side by side: daily and peak-hour usage, the TCP latency CDF, and the
// bit-rate efficiency CDF.
//
//	go run ./examples/museum
package main

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/topo"
)

func main() {
	const days = 2
	type outcome struct {
		alg      string
		dailyTB  float64
		peakTB   float64
		latP50   float64
		latP90   float64
		effP50   float64
		switches int
	}
	var results []outcome

	for _, alg := range []backend.Algorithm{backend.AlgReservedCA, backend.AlgTurboCA} {
		sc := topo.Museum(42)
		engine := sim.NewEngine(42)
		be := backend.New(backend.DefaultOptions(alg), sc, engine)
		fmt.Printf("running %v over %s for %d days...\n", alg, sc, days)
		be.Start()
		engine.RunUntil(sim.Time(days) * sim.Day)

		// Skip day 1 while the algorithm stabilizes (§4.6.1 skips the
		// first week).
		from, to := sim.Day, sim.Time(days)*sim.Day
		peak := 0.0
		for h := from; h < to; h += sim.Hour {
			if v := be.UsageBytes(h, h+sim.Hour) / 1e12; v > peak {
				peak = v
			}
		}
		rep := be.Report(from, to)
		results = append(results, outcome{
			alg:      alg.String(),
			dailyTB:  rep.TotalUsageTB / float64(days-1),
			peakTB:   peak,
			latP50:   rep.TCPLatencyP50,
			latP90:   rep.TCPLatencyP90,
			effP50:   rep.BitrateEffP50,
			switches: be.Switches(),
		})
	}

	fmt.Printf("\n%-12s %10s %10s %9s %9s %8s %9s\n",
		"algorithm", "daily(TB)", "peak(TB)", "lat p50", "lat p90", "eff p50", "switches")
	for _, r := range results {
		fmt.Printf("%-12s %10.3f %10.4f %7.1fms %7.1fms %8.3f %9d\n",
			r.alg, r.dailyTB, r.peakTB, r.latP50, r.latP90, r.effP50, r.switches)
	}
	a, b := results[0], results[1]
	fmt.Printf("\nTurboCA vs ReservedCA: peak usage %+.0f%%, median TCP latency %+.0f%%, bit-rate efficiency %+.0f%%\n",
		100*(b.peakTB-a.peakTB)/a.peakTB,
		100*(b.latP50-a.latP50)/a.latP50,
		100*(b.effP50-a.effP50)/a.effP50)
	fmt.Println("paper (Table 2, Figs 8-9): peak +27%, latency -40%, efficiency +15%")
}

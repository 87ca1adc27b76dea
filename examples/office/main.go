// Office: one simulated day of a dense single-floor deployment (the
// Meraki-HQ-like network of §3.2.2 and Fig 6), with the dedicated
// scanning radio feeding TurboCA's 15-minute reactive schedule.
//
// The example prints an hour-by-hour view of one AP — associated-client
// demand, channel utilization, current channel — so the Fig 6 shape
// (gradual client curve, bursty usage, the ~2 pm spike) and TurboCA's
// reactions to it are visible in one terminal screen.
//
//	go run ./examples/office
package main

import (
	"fmt"
	"strings"

	"repro/internal/backend"
	"repro/internal/radio"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// scanEnv adapts the scenario to the scanning radio's
// Environment interface: a dwell on channel c observes the external
// interferers audible at the AP plus co-channel neighbor airtime.
type scanEnv struct{ sc *topo.Scenario }

func (e scanEnv) ObserveChannel(apID int, ch spectrum.Channel, t sim.Time) (float64, map[int]float64) {
	sc := e.sc
	ap := sc.APs[apID]
	util := sc.ExternalUtilization(ap.Pos, ch.Band, ch.Number)
	neigh := map[int]float64{}
	for _, n := range sc.NeighborsOf(ap) {
		onChan := n.AP.Channel
		if ch.Band == spectrum.Band2G4 {
			onChan = n.AP.Channel24
		}
		if onChan.Overlaps(ch) {
			neigh[n.AP.ID] = n.RSSIDBm
			// A busy co-channel neighbor also shows up as busy air.
			util += 0.05
		}
	}
	if util > 1 {
		util = 1
	}
	return util, neigh
}

func main() {
	sc := topo.Office(21)
	engine := sim.NewEngine(21)
	be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), sc, engine)

	// Attach a scanning radio to the AP we will watch. (The backend's
	// long-horizon loop snapshots the same quantities analytically; the
	// scanner shows the per-dwell mechanics of §2.1.)
	watched := sc.APs[4]
	scanner := radio.NewScanner(watched.ID, scanEnv{sc})
	scanner.Start(engine)

	fmt.Printf("office: %d APs; watching %s at (%.0f,%.0f)\n",
		len(sc.APs), watched.Name, watched.Pos.X, watched.Pos.Y)
	fmt.Printf("%5s %9s %8s %12s %6s %s\n", "hour", "demand", "util", "channel", "busy36", "demand bar")

	be.Start()
	lastChan := watched.Channel
	switches := 0
	for hour := 0; hour < 24; hour++ {
		engine.RunUntil(sim.Time(hour+1) * sim.Hour)
		now := engine.Now()
		demand := sc.DemandAt(watched, now)
		perf := be.Model.Evaluate(now)[watched.ID]
		if watched.Channel != lastChan {
			switches++
			lastChan = watched.Channel
		}
		busy36 := 0.0
		if ch, ok := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20); ok {
			if o, found := scanner.Observation(ch); found {
				busy36 = o.Utilization
			}
		}
		fmt.Printf("%4dh %7.1fMb %7.0f%% %12v %5.0f%% %s\n",
			hour+1, demand, 100*perf.Utilization, watched.Channel, 100*busy36,
			strings.Repeat("#", int(demand/3)))
	}

	fmt.Printf("\nday summary: %d channel switches on the watched AP, %d network-wide\n",
		switches, be.Switches())
	lat := be.DB.Table("tcp_latency").AggregateField("ms", 0, 24*sim.Hour)
	fmt.Printf("network TCP latency p50=%.1fms p90=%.1fms over %d samples\n",
		lat.Median(), lat.Percentile(90), lat.N())
	nr := scanner.NeighborReport(spectrum.Band5)
	fmt.Printf("scanner heard %d distinct 5 GHz neighbors from %s\n", len(nr), watched.Name)
}

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
	"slices"
	"strings"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// observation is what one dwell of an AP's dedicated scanning radio (§2.1)
// sees on one 20 MHz channel.
type observation struct {
	util      float64         // busy fraction
	neighbors map[int]float64 // overheard AP id -> RSSI dBm
}

// observe dwells on ch from ap: the external interferers audible there
// plus co-channel neighbor airtime.
func observe(sc *topo.Scenario, ap *topo.AP, ch spectrum.Channel) observation {
	o := observation{
		util:      sc.ExternalUtilization(ap.Pos, ch.Band, ch.Number),
		neighbors: map[int]float64{},
	}
	for _, n := range sc.NeighborsOf(ap) {
		onChan := n.AP.Channel
		if ch.Band == spectrum.Band2G4 {
			onChan = n.AP.Channel24
		}
		if onChan.Overlaps(ch) {
			o.neighbors[n.AP.ID] = n.RSSIDBm
			// A busy co-channel neighbor also shows up as busy air.
			o.util += 0.05
		}
	}
	o.util = min(o.util, 1)
	return o
}

func main() {
	sc := topo.Office(21)
	engine := sim.NewEngine(21)
	be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), sc, engine)

	// The watched AP's scanning radio: one 150 ms dwell per 20 MHz
	// channel, both bands in turn, keeping the freshest observation of
	// each. (The backend's long-horizon loop snapshots the same quantities
	// analytically; this shows the per-dwell mechanics of §2.1.)
	watched := sc.APs[4]
	channels := slices.Concat(
		spectrum.Channels(spectrum.Band2G4, spectrum.W20, true),
		spectrum.Channels(spectrum.Band5, spectrum.W20, true))
	latest := map[spectrum.Channel]observation{}
	dwell := 0
	engine.Ticker(150*sim.Millisecond, func(*sim.Engine) {
		ch := channels[dwell%len(channels)]
		dwell++
		latest[ch] = observe(sc, watched, ch)
	})

	fmt.Printf("office: %d APs; watching %s at (%.0f,%.0f)\n",
		len(sc.APs), watched.Name, watched.Pos.X, watched.Pos.Y)
	fmt.Printf("%5s %9s %8s %12s %6s %s\n", "hour", "demand", "util", "channel", "busy36", "demand bar")

	be.Start()
	ch36, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
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
		fmt.Printf("%4dh %7.1fMb %7.0f%% %12v %5.0f%% %s\n",
			hour+1, demand, 100*perf.Utilization, watched.Channel, 100*latest[ch36].util,
			strings.Repeat("#", int(demand/3)))
	}

	fmt.Printf("\nday summary: %d channel switches on the watched AP, %d network-wide\n",
		switches, be.Switches())
	lat := be.DB.Table("tcp_latency").AggregateField("ms", 0, 24*sim.Hour)
	fmt.Printf("network TCP latency p50=%.1fms p90=%.1fms over %d samples\n",
		lat.Median(), lat.Percentile(90), lat.N())
	heard := map[int]bool{}
	for ch, o := range latest {
		if ch.Band == spectrum.Band5 {
			for id := range o.neighbors {
				heard[id] = true
			}
		}
	}
	fmt.Printf("scanner heard %d distinct 5 GHz neighbors from %s\n", len(heard), watched.Name)
}

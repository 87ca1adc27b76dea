// Quickstart: the three workflows of the library in ~60 lines.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/testbed"
	"repro/internal/topo"
)

func main() {
	// 1. Measurement study (Section 3): synthesize a fleet and query it
	// like the Meraki backend queries LittleTable.
	f := fleet.Generate(fleet.Options{Seed: 1, Networks: 200})
	u24 := f.UtilizationCDF(spectrum.Band2G4, 10)
	u5 := f.UtilizationCDF(spectrum.Band5, 10)
	fmt.Printf("fleet: %d APs; median utilization 2.4GHz=%.0f%% 5GHz=%.0f%%\n",
		f.APCount(), 100*u24.Median(), 100*u5.Median())

	// 2. Channel planning (Section 4): take a 33-AP office that boots
	// with every radio on the same 80 MHz channel, and let TurboCA fix it.
	// The backend snapshots the planner's input, its TurboCA service runs
	// one deep pass (hops 2,1,0) and pushes the accepted plan to the APs.
	be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), topo.Office(7), sim.NewEngine(7))
	fmt.Printf("office before: widths %v\n", be.Report(0, 0).Widths)
	be.Service.RunOnce([]int{2, 1, 0})
	after := be.Report(0, 0)
	fmt.Printf("office after:  widths %v, %d on DFS (switches=%d)\n", after.Widths, after.DFSCount, be.Switches())

	// 3. TCP acceleration (Section 5): ten clients downloading through
	// one AP, baseline vs FastACK, same channel realization.
	for _, mode := range []testbed.Mode{testbed.Baseline, testbed.FastACK} {
		opt := testbed.DefaultOptions()
		opt.ClientsPerAP = 10
		opt.APModes = []testbed.Mode{mode}
		opt.BadHintRate = 0.015
		tb := testbed.New(opt)
		dur := 8 * sim.Second
		tb.Run(dur)
		total := 0.0
		for _, c := range tb.Clients {
			total += c.GoodputMbps(dur)
		}
		fmt.Printf("testbed %-8v: %6.1f Mbps aggregate, mean A-MPDU %.1f\n",
			mode, total, tb.AggAP[0].Mean())
	}
}

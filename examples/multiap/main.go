// Multiap: the Fig 18 experiment — two APs sharing one collision domain
// and channel, ten clients each, all combinations of baseline TCP and
// FastACK, plus the asymmetric case's per-AP breakdown showing that a
// FastACK AP wins airtime from a baseline neighbor without hurting the
// network total.
//
//	go run ./examples/multiap
package main

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/testbed"
)

func main() {
	const clients = 10
	dur := 10 * sim.Second

	cases := []struct {
		name   string
		m1, m2 testbed.Mode
	}{
		{"baseline + baseline", testbed.Baseline, testbed.Baseline},
		{"baseline + fastack", testbed.Baseline, testbed.FastACK},
		{"fastack  + fastack", testbed.FastACK, testbed.FastACK},
	}

	fmt.Printf("two APs, one channel, %d clients each, %v per case\n\n", clients, dur)
	fmt.Printf("%-22s %10s %10s %10s %8s %8s\n", "case", "AP1 Mbps", "AP2 Mbps", "total", "agg1", "agg2")

	var totals []float64
	for _, tc := range cases {
		opt := testbed.DefaultOptions()
		opt.APModes = []testbed.Mode{tc.m1, tc.m2}
		opt.ClientsPerAP = clients
		opt.BadHintRate = 0.015
		tb := testbed.New(opt)
		tb.Run(dur)

		var ap1, ap2 float64
		for _, c := range tb.Clients {
			if c.AP.Index == 0 {
				ap1 += c.GoodputMbps(dur)
			} else {
				ap2 += c.GoodputMbps(dur)
			}
		}
		totals = append(totals, ap1+ap2)
		fmt.Printf("%-22s %10.1f %10.1f %10.1f %8.1f %8.1f\n",
			tc.name, ap1, ap2, ap1+ap2, tb.AggAP[0].Mean(), tb.AggAP[1].Mean())
	}

	fmt.Printf("\nboth-FastACK vs both-baseline: %+.0f%% (paper: +51%%)\n",
		100*(totals[2]-totals[0])/totals[0])
	fmt.Printf("one-sided FastACK vs both-baseline: %+.0f%% (paper: net positive)\n",
		100*(totals[1]-totals[0])/totals[0])
}

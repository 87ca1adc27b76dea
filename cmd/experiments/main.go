// Command experiments reruns the paper's evaluation — every table and
// figure in internal/experiments' index — and prints a paper-vs-measured
// report. With -md it emits the EXPERIMENTS.md body.
//
//	experiments                    # full run, text report (~3 min)
//	experiments -quick             # shortened simulations
//	experiments -md                # markdown output
//	experiments -only fig16,fig10  # just these, and only the runs they need
//	experiments -only fig17 -detail
//
// It exits 1 when a report's must-hold row is violated (Chaos, Uplink) and
// 2 on an experiment ID the index does not have.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/pcap"
)

func main() { os.Exit(run()) }

func run() int {
	quick := flag.Bool("quick", false, "shorten simulated durations")
	md := flag.Bool("md", false, "emit markdown (EXPERIMENTS.md body)")
	seed := flag.Int64("seed", 42, "experiment seed")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. fig16,table2); default all")
	detail := flag.Bool("detail", false, "also print each experiment's per-point series (CDF percentiles, per-client, per-flow and per-seed rows)")
	pcapPath := flag.String("pcap", "", "write the first testbed run's wired-port traffic to this pcap file")
	metricsAddr := flag.String("metrics", "", "serve metrics JSON (/metrics), text (/metrics.txt), span traces (/trace), and net/http/pprof on this address (e.g. localhost:6060) while the experiments run")
	flag.Parse()

	selected, err := experiments.Select(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	_, stopMetrics := obs.ServeFlag(*metricsAddr)
	defer stopMetrics()

	s := experiments.NewSession(experiments.Options{Seed: *seed, Quick: *quick})
	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			return 1
		}
		w := pcap.NewWriter(f, pcap.LinkTypeRawIP)
		s.Capture = w
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pcap:", err)
			}
			fmt.Fprintf(os.Stderr, "wrote %d packets to %s\n", w.Packets(), *pcapPath)
		}()
	}

	status := 0
	var reports []experiments.Report
	for _, e := range selected {
		r := e.Run(s)
		if r.Failed {
			status = 1
		}
		reports = append(reports, r)
	}
	if *md {
		fmt.Print(experiments.Markdown(reports, *detail))
	} else {
		fmt.Print(experiments.Text(reports, *detail))
	}
	return status
}

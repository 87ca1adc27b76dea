// Command fleetreport regenerates the Section 3 measurement study over a
// synthesized fleet: device trends (Fig 1), channel utilization (Fig 2),
// interferer counts (Fig 3), client density (§3.2.3), channel-width
// configuration (Table 1) and the 5 GHz bit-rate distribution (Fig 5).
// The access-category study (Fig 4) runs on the MAC simulator via
// `go test -bench BenchmarkFig4` or cmd/experiments.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

func main() {
	networks := flag.Int("networks", 1500, "number of synthesized networks")
	clients := flag.Int("clients", 200000, "clients sampled for the capability study")
	seed := flag.Int64("seed", 2017, "synthesis seed")
	metricsAddr := flag.String("metrics", "", "serve metrics JSON (/metrics), text (/metrics.txt), span traces (/trace), and net/http/pprof on this address (e.g. localhost:6060) while the report generates")
	flag.Parse()

	reg, stopMetrics := obs.ServeFlag(*metricsAddr)
	defer stopMetrics()

	f := fleet.Generate(fleet.Options{Seed: *seed, Networks: *networks})
	fmt.Printf("fleet: %d networks, %d APs (%d networks with >=10 APs)\n\n",
		len(f.Networks), f.APCount(), len(f.LargeNetworks(10)))

	fig1(*clients, *seed)
	fig2(f)
	fig3(f)
	density(f)
	table1(f)
	fig5(f)

	if reg != nil {
		fmt.Println("--- metrics ---")
		_, _ = reg.Snapshot().WriteText(os.Stdout)
	}
}

func fig1(nClients int, seed int64) {
	fmt.Println("# Fig 1: advertised client capabilities (fraction of clients)")
	fmt.Printf("%-14s %8s %8s\n", "capability", "2015", "2017")
	c15 := fleet.CapabilityReport(fleet.Cohort2015, nClients, seed)
	c17 := fleet.CapabilityReport(fleet.Cohort2017, nClients, seed+1)
	for _, cap := range []string{"802.11ac", "2.4GHz-only", ">=40MHz", ">=80MHz", ">=2SS"} {
		fmt.Printf("%-14s %7.1f%% %7.1f%%\n", cap,
			100*float64(c15.Count(cap))/float64(c15.Count("all")),
			100*float64(c17.Count(cap))/float64(c17.Count("all")))
	}
	fmt.Println()
}

func fig2(f *fleet.Fleet) {
	fmt.Println("# Fig 2: CDF of channel utilization, networks with >=10 APs")
	u24 := f.UtilizationCDF(spectrum.Band2G4, 10)
	u5 := f.UtilizationCDF(spectrum.Band5, 10)
	fmt.Printf("%-8s %10s %10s\n", "pct", "2.4GHz", "5GHz")
	for _, p := range []float64{10, 25, 50, 75, 90, 99} {
		fmt.Printf("p%-7.0f %9.1f%% %9.1f%%\n", p, 100*u24.Percentile(p), 100*u5.Percentile(p))
	}
	fmt.Println()
}

func fig3(f *fleet.Fleet) {
	fmt.Println("# Fig 3: CDF of same-channel interfering APs")
	i24 := f.InterfererCDF(spectrum.Band2G4, 10)
	i5 := f.InterfererCDF(spectrum.Band5, 10)
	fmt.Printf("%-8s %8s %8s\n", "pct", "2.4GHz", "5GHz")
	for _, p := range []float64{25, 50, 75, 90, 99} {
		fmt.Printf("p%-7.0f %8.0f %8.0f\n", p, i24.Percentile(p), i5.Percentile(p))
	}
	fmt.Println()
}

func density(f *fleet.Fleet) {
	fmt.Println("# §3.2.3: client density buckets (802.11ac APs, networks >=10 APs)")
	b := f.ClientDensityBuckets(10)
	for _, k := range []string{"<=5", "6-10", "11-20", ">=21"} {
		fmt.Printf("%-6s %5.1f%%\n", k, 100*b.Fraction(k))
	}
	fmt.Printf("max associated clients on one AP: %d\n\n", f.MaxClientDensity())
}

func table1(f *fleet.Fleet) {
	fmt.Println("# Table 1: configured channel width, 802.11ac APs")
	all, large := f.WidthTable()
	fmt.Printf("%-8s %9s %9s\n", "width", "all APs", ">10-AP nets")
	for _, w := range []string{"20MHz", "40MHz", "80MHz"} {
		fmt.Printf("%-8s %8.1f%% %8.1f%%\n", w, 100*all.Fraction(w), 100*large.Fraction(w))
	}
	fmt.Println()
}

func fig5(f *fleet.Fleet) {
	fmt.Println("# Fig 5: 5 GHz bit-rate distribution (Mbps)")
	s := f.BitrateDistribution(100000)
	h := stats.NewHistogram(0, 1024, 16)
	for _, v := range s.Values() {
		h.Add(v)
	}
	pdf := h.PDF()
	for i, frac := range pdf {
		if frac < 0.005 {
			continue
		}
		lo := h.Lo + float64(i)*h.BinWidth()
		fmt.Printf("%5.0f-%-5.0f %5.1f%% %s\n", lo, lo+h.BinWidth(), 100*frac, hashBar(frac))
	}
	fmt.Printf("median=%.0f p90=%.0f mode-bin=%.0f\n", s.Median(), s.Percentile(90), h.Mode())
}

func hashBar(frac float64) string {
	n := int(frac * 200)
	if n > 50 {
		n = 50
	}
	out := make([]byte, n)
	for i := range out {
		out[i] = '#'
	}
	return string(out)
}

// Command fastackbench runs the §5.6 testbed experiments: baseline TCP vs
// FastACK across client counts, reporting throughput, latency, aggregation,
// fairness and the multi-AP matrix.
//
// Usage:
//
//	fastackbench -experiment=throughput -clients=5,10,15,20,25,30 -duration=12s
//	fastackbench -experiment=latency|aggregation|fairness|multiap|cwnd|chaos
//
// The -chaos flag arms seeded data-path fault injection (wired loss,
// reordering, duplication, corruption, block-ACK feedback bursts) and the
// FastACK runtime invariant checker in every run of any experiment. The
// chaos experiment sweeps seeds and reports guarded FastACK vs baseline
// goodput alongside the fault and guard counters:
//
//	fastackbench -experiment=chaos -seeds=20 -seed=1
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/fastack"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/testbed"
)

func main() {
	exp := flag.String("experiment", "throughput", "one of: throughput, latency, aggregation, fairness, multiap, cwnd, chaos, uplink")
	clientsFlag := flag.String("clients", "5,10,15,20,25,30", "comma-separated client counts")
	durFlag := flag.Duration("duration", 0, "simulated duration per run (default depends on experiment)")
	seed := flag.Int64("seed", 1, "simulation seed")
	flag.BoolVar(&chaosEnabled, "chaos", false, "inject seeded data-path chaos (faults.DataChaos) and arm FastACK runtime invariants in every run")
	seeds := flag.Int("seeds", 10, "number of consecutive seeds for -experiment=chaos")
	pcapPath := flag.String("pcap", "", "write the first run's wired-port traffic to this pcap file")
	metricsAddr := flag.String("metrics", "", "serve metrics JSON (/metrics), text (/metrics.txt), span traces (/trace), and net/http/pprof on this address (e.g. localhost:6060) while the experiments run")
	flag.Parse()

	reg, stopMetrics := obs.ServeFlag(*metricsAddr)
	defer stopMetrics()

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pcap:", err)
			os.Exit(1)
		}
		defer f.Close()
		w := pcap.NewWriter(f, pcap.LinkTypeRawIP)
		captureWriter = w
		defer func() { fmt.Fprintf(os.Stderr, "wrote %d packets to %s\n", w.Packets(), *pcapPath) }()
	}

	counts, err := parseCounts(*clientsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -clients:", err)
		os.Exit(2)
	}
	dur := sim.Time(durFlag.Microseconds())

	switch *exp {
	case "throughput":
		runThroughput(counts, orDefault(dur, 12*sim.Second), *seed)
	case "latency":
		runLatency(counts, orDefault(dur, 12*sim.Second), *seed)
	case "aggregation":
		runAggregation(orDefault(dur, 15*sim.Second), *seed)
	case "fairness":
		runFairness(orDefault(dur, 15*sim.Second), *seed)
	case "multiap":
		runMultiAP(orDefault(dur, 12*sim.Second), *seed)
	case "cwnd":
		runCwnd(orDefault(dur, 8*sim.Second), *seed)
	case "chaos":
		runChaos(*seeds, orDefault(dur, 3*sim.Second), *seed)
	case "uplink":
		runUplink(counts, orDefault(dur, 8*sim.Second), *seed)
	default:
		fmt.Fprintln(os.Stderr, "unknown experiment:", *exp)
		os.Exit(2)
	}

	if reg != nil {
		fmt.Println("--- metrics ---")
		_, _ = reg.Snapshot().WriteText(os.Stdout)
	}
}

func orDefault(d, def sim.Time) sim.Time {
	if d > 0 {
		return d
	}
	return def
}

func parseCounts(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}

// captureWriter, when set by -pcap, records the first run's wired traffic.
var captureWriter *pcap.Writer

// chaosEnabled, set by -chaos, applies seeded data-path faults and arms
// the FastACK runtime invariant checker in every run.
var chaosEnabled bool

func run(mode testbed.Mode, clients int, dur sim.Time, seed int64, mutate func(*testbed.Options)) *testbed.Testbed {
	opt := testbed.DefaultOptions()
	opt.Seed = seed
	opt.APModes = []testbed.Mode{mode}
	opt.ClientsPerAP = clients
	opt.BadHintRate = 0.015
	if chaosEnabled {
		opt.DataFaults = faults.DataChaos(seed)
		opt.FastACK.CheckInvariants = true
	}
	if captureWriter != nil {
		opt.Capture = captureWriter
		captureWriter = nil // first run only
	}
	if mutate != nil {
		mutate(&opt)
	}
	tb := testbed.New(opt)
	tb.Run(dur)
	if opt.DataFaults != nil {
		// Quiet drain tail so bypassed flows can settle their fast-ACK
		// debt before counters are read.
		tb.Engine.RunUntil(dur + 500*sim.Millisecond)
	}
	return tb
}

func aggregateMbps(tb *testbed.Testbed, dur sim.Time) float64 {
	total := 0.0
	for _, c := range tb.Clients {
		total += c.GoodputMbps(dur)
	}
	return total
}

// runThroughput reproduces Fig 16: aggregate client throughput, baseline vs
// FastACK, across client counts.
func runThroughput(counts []int, dur sim.Time, seed int64) {
	fmt.Println("# Fig 16: aggregate client throughput (Mbps)")
	fmt.Printf("%8s %12s %12s %8s\n", "clients", "baseline", "fastack", "gain")
	for _, n := range counts {
		base := aggregateMbps(run(testbed.Baseline, n, dur, seed, nil), dur)
		fast := aggregateMbps(run(testbed.FastACK, n, dur, seed, nil), dur)
		fmt.Printf("%8d %12.1f %12.1f %7.1f%%\n", n, base, fast, 100*(fast-base)/base)
	}
}

// runLatency reproduces Fig 10: mean 802.11 latency vs TCP latency under
// baseline TCP as the client count grows.
func runLatency(counts []int, dur sim.Time, seed int64) {
	fmt.Println("# Fig 10: 802.11 latency vs TCP latency (baseline TCP, mean ms)")
	fmt.Printf("%8s %12s %12s %8s\n", "clients", "802.11", "TCP", "gap")
	for _, n := range counts {
		tb := run(testbed.Baseline, n, dur, seed, nil)
		l80211 := tb.Lat80211.Mean()
		ltcp := tb.LatTCP.Mean()
		gap := 0.0
		if l80211 > 0 {
			gap = 100 * (ltcp - l80211) / l80211
		}
		fmt.Printf("%8d %12.2f %12.2f %7.1f%%\n", n, l80211, ltcp, gap)
	}
}

// runAggregation reproduces Fig 15: per-client mean A-MPDU size with 30
// clients — baseline vs FastACK vs the UDP upper bound.
func runAggregation(dur sim.Time, seed int64) {
	const n = 30
	fmt.Println("# Fig 15: mean 802.11 aggregation size per client (30 clients)")
	base := run(testbed.Baseline, n, dur, seed, nil)
	fast := run(testbed.FastACK, n, dur, seed, nil)
	udp := run(testbed.Baseline, n, dur, seed, func(o *testbed.Options) {
		o.Traffic = testbed.UDPBulk
		o.UDPRateMbps = 40
	})
	fmt.Printf("%8s %10s %10s %10s\n", "client", "baseline", "fastack", "udp")
	for i := 0; i < n; i++ {
		fmt.Printf("%8d %10.1f %10.1f %10.1f\n", i,
			base.AggPerClient[i].Mean(), fast.AggPerClient[i].Mean(), udp.AggPerClient[i].Mean())
	}
	fmt.Printf("%8s %10.1f %10.1f %10.1f\n", "mean",
		base.AggAP[0].Mean(), fast.AggAP[0].Mean(), udp.AggAP[0].Mean())
}

// runFairness reproduces Fig 17: sorted per-client throughput and Jain's
// index for a 30-client instance.
func runFairness(dur sim.Time, seed int64) {
	const n = 30
	fmt.Println("# Fig 17: per-client throughput fairness (30 clients)")
	for _, mode := range []testbed.Mode{testbed.Baseline, testbed.FastACK} {
		tb := run(mode, n, dur, seed, nil)
		var xs []float64
		for _, c := range tb.Clients {
			xs = append(xs, c.GoodputMbps(dur))
		}
		sort.Float64s(xs)
		fmt.Printf("%s: jain=%.3f top80=%.3f\n", mode, stats.JainFairness(xs), stats.JainFairness(xs[len(xs)/5:]))
		for i, x := range xs {
			fmt.Printf("  client%02d %8.2f Mbps\n", i, x)
		}
	}
}

// runMultiAP reproduces Fig 18: two APs in one collision domain, 10 clients
// each, all four mode combinations.
func runMultiAP(dur sim.Time, seed int64) {
	fmt.Println("# Fig 18: multi-AP deployment (2 APs x 10 clients, shared channel)")
	cases := []struct {
		name string
		m1   testbed.Mode
		m2   testbed.Mode
	}{
		{"base+base", testbed.Baseline, testbed.Baseline},
		{"base+fastack", testbed.Baseline, testbed.FastACK},
		{"fastack+fastack", testbed.FastACK, testbed.FastACK},
	}
	fmt.Printf("%18s %10s %10s %10s\n", "case", "AP1", "AP2", "total")
	for _, tc := range cases {
		tb := run(tc.m1, 10, dur, seed, func(o *testbed.Options) {
			o.APModes = []testbed.Mode{tc.m1, tc.m2}
		})
		var ap1, ap2 float64
		for _, c := range tb.Clients {
			if c.AP.Index == 0 {
				ap1 += c.GoodputMbps(dur)
			} else {
				ap2 += c.GoodputMbps(dur)
			}
		}
		fmt.Printf("%18s %10.1f %10.1f %10.1f\n", tc.name, ap1, ap2, ap1+ap2)
	}
}

// runChaos sweeps consecutive seeds of the data-path chaos profile and
// reports baseline vs guarded-FastACK goodput with the injected-fault and
// safety-guard counters. A non-zero viol or undrained column is a bug.
func runChaos(seeds int, dur sim.Time, firstSeed int64) {
	fmt.Println("# chaos: baseline vs guarded FastACK under seeded data-path faults (2 clients)")
	fmt.Printf("%6s %10s %10s %7s %6s %6s %6s %5s %5s %5s %5s %6s\n",
		"seed", "baseline", "fastack", "ratio", "drops", "corr", "badr", "susp", "byp", "drain", "viol", "undr")
	wasChaos := chaosEnabled
	chaosEnabled = true
	defer func() { chaosEnabled = wasChaos }()
	for s := firstSeed; s < firstSeed+int64(seeds); s++ {
		base := aggregateMbps(run(testbed.Baseline, 2, dur, s, nil), dur)
		tb := run(testbed.FastACK, 2, dur, s, nil)
		fast := aggregateMbps(tb, dur)
		var st fastack.Stats
		for _, s := range tb.AgentStatsPerAP() {
			st.GuardSuspects += s.GuardSuspects
			st.GuardBypasses += s.GuardBypasses
			st.GuardDrains += s.GuardDrains
			st.InvariantViolations += s.InvariantViolations
		}
		fmt.Printf("%6d %10.1f %10.1f %7.3f %6d %6d %6d %5d %5d %5d %5d %6d\n",
			s, base, fast, fast/base,
			tb.Faults.WireDrops, tb.Faults.WireCorrupts, tb.Faults.BADrops,
			st.GuardSuspects, st.GuardBypasses, st.GuardDrains,
			st.InvariantViolations, tb.UndrainedBypassedFlows())
	}
}

// runCwnd reproduces Fig 14: final cwnd per flow for 10 clients.
func runCwnd(dur sim.Time, seed int64) {
	const n = 10
	fmt.Println("# Fig 14: sender congestion window (segments) per flow, 10 clients")
	for _, mode := range []testbed.Mode{testbed.Baseline, testbed.FastACK} {
		tb := run(mode, n, dur, seed, nil)
		fmt.Printf("%s:\n", mode)
		for i, snd := range tb.Senders {
			last := 0
			max := 0
			for _, cs := range snd.CwndTrace {
				last = cs.Segments
				if cs.Segments > max {
					max = cs.Segments
				}
			}
			fmt.Printf("  flow%02d final=%4d max=%4d\n", i, last, max)
		}
	}
}

// runUplink reports the reverse-direction regimes: pure uplink (client is
// the TCP sender) and bidirectional, baseline vs FastACK. The agent must
// be pass-through here — the fast/dorm columns pin that it forged and
// suppressed nothing while still tracking the reverse flows.
func runUplink(counts []int, dur sim.Time, seed int64) {
	fmt.Println("# uplink/reverse-direction: aggregate goodput (Mbps); agent must stay dormant")
	fmt.Printf("%8s %14s %10s %10s %7s %6s %6s %6s\n",
		"clients", "traffic", "baseline", "fastack", "ratio", "forged", "suppr", "flows")
	for _, traffic := range []testbed.Traffic{testbed.TCPUplink, testbed.TCPBidirectional} {
		name := "uplink"
		if traffic == testbed.TCPBidirectional {
			name = "bidirectional"
		}
		for _, n := range counts {
			mut := func(o *testbed.Options) { o.Traffic = traffic }
			up := func(tb *testbed.Testbed) float64 {
				total := 0.0
				for _, c := range tb.Clients {
					total += c.UplinkGoodputMbps(dur)
				}
				return total
			}
			base := up(run(testbed.Baseline, n, dur, seed, mut))
			tb := run(testbed.FastACK, n, dur, seed, mut)
			fast := up(tb)
			var st fastack.Stats
			for _, s := range tb.AgentStatsPerAP() {
				st.FastAcksSent += s.FastAcksSent
				st.ClientAcksDropped += s.ClientAcksDropped
				st.FlowsTracked += s.FlowsTracked
			}
			forged, suppressed := st.FastAcksSent, st.ClientAcksDropped
			if traffic == testbed.TCPBidirectional {
				// The download direction legitimately fast-acks; only the
				// pure-uplink rows must read zero.
				forged, suppressed = 0, 0
			}
			fmt.Printf("%8d %14s %10.1f %10.1f %7.3f %6d %6d %6d\n",
				n, name, base, fast, fast/base, forged, suppressed, st.FlowsTracked)
		}
	}
}

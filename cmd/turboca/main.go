// Command turboca plans channels for a synthetic deployment and reports
// the plan, NetP improvement, and switch count — or runs the full §4.6
// A/B evaluation of TurboCA vs ReservedCA over simulated weeks.
//
// Usage:
//
//	turboca -scenario=office|campus|museum -mode=plan
//	turboca -scenario=museum -mode=eval -days=5
//	turboca -oracle -aps=9 -oracle-kind=grid
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"

	// Registers the fastack metric scope on the default registry so
	// -metrics advertises the full schema even in planner-only runs
	// (exporter-style pre-registration).
	_ "repro/internal/fastack"
)

func main() {
	scenario := flag.String("scenario", "office", "office, campus, museum, school, or hotel")
	mode := flag.String("mode", "plan", "plan (one-shot) or eval (A/B vs ReservedCA)")
	days := flag.Int("days", 3, "simulated days per algorithm in eval mode")
	seed := flag.Int64("seed", 42, "generation seed")
	workers := flag.Int("workers", 0, "concurrent NBO rounds per hop level (0 = GOMAXPROCS); results are identical for any value")
	chaos := flag.Bool("chaos", false, "eval mode: inject the default chaos fault profile (poll loss, delays, corruption, push failures)")
	pollLoss := flag.Float64("poll-loss", 0, "eval mode: per-AP poll loss probability (overrides -chaos default)")
	pushFail := flag.Float64("push-fail", 0, "eval mode: per-attempt plan-push failure probability (overrides -chaos default)")
	rfTrace := flag.Bool("rf-trace", false, "eval mode: drive both algorithms through seeded per-channel spectrum occupancy traces (non-WiFi interference folded into planner inputs)")
	metricsAddr := flag.String("metrics", "", "serve metrics JSON (/metrics), text (/metrics.txt), span traces (/trace), and net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	oracleMode := flag.Bool("oracle", false, "one-shot optimality-gap check: exact branch-and-bound vs NBO vs ReservedCA on a small topology")
	oracleAPs := flag.Int("aps", 9, "oracle mode: topology size (exact solving is practical up to ~12)")
	oracleKind := flag.String("oracle-kind", "grid", "oracle mode: topology family (line, ring, grid, clique, sparse)")
	oracleNodes := flag.Int("oracle-nodes", 0, "oracle mode: search node budget (0 = default, negative = unlimited)")
	flag.Parse()

	if *oracleMode {
		oracleGap(*oracleKind, *oracleAPs, *oracleNodes, *seed)
		return
	}

	reg, stopMetrics := obs.ServeFlag(*metricsAddr)
	defer stopMetrics()

	build, ok := scenarios[*scenario]
	if !ok {
		fmt.Fprintln(os.Stderr, "unknown scenario:", *scenario)
		os.Exit(2)
	}

	var prof *faults.Profile
	if *chaos || *pollLoss > 0 || *pushFail > 0 {
		prof = faults.DefaultChaos(*seed)
		if !*chaos {
			// Explicit rates only: start from a quiet profile.
			prof = &faults.Profile{Seed: *seed}
		}
		if *pollLoss > 0 {
			prof.PollLoss = *pollLoss
		}
		if *pushFail > 0 {
			prof.PushFail = *pushFail
		}
	}

	switch *mode {
	case "plan":
		planOnce(build, *seed, *workers)
	case "eval":
		evalAB(build, *days, *seed, *workers, prof, *rfTrace, reg)
	default:
		fmt.Fprintln(os.Stderr, "unknown mode:", *mode)
		os.Exit(2)
	}

	if reg != nil {
		fmt.Println("--- metrics ---")
		_, _ = reg.Snapshot().WriteText(os.Stdout)
	}
}

// oracleGap runs a one-shot optimality-gap check: build one small
// scenario, solve it exactly, and score NBO and ReservedCA against the
// certificate.
func oracleGap(kind string, aps, maxNodes int, seed int64) {
	ok := false
	for _, k := range oracle.Kinds {
		if string(k) == kind {
			ok = true
			break
		}
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "unknown -oracle-kind:", kind)
		os.Exit(2)
	}
	cfg, in := oracle.Scenario(oracle.Kind(kind), aps, rand.New(rand.NewSource(seed)))
	start := time.Now()
	g := oracle.Gap(cfg, in, oracle.GapOptions{
		Seed:  seed,
		Solve: oracle.Options{MaxNodes: maxNodes},
	})
	elapsed := time.Since(start)

	fmt.Printf("scenario: %s, %d APs, seed %d\n", kind, aps, seed)
	fmt.Printf("%-14s %14s\n", "plan", "logNetP")
	fmt.Printf("%-14s %14.6f  (bound %.6f, proven=%v, %d nodes, %v)\n",
		"oracle", g.OracleLogNetP, g.Bound, g.Proven, g.Nodes, elapsed.Round(time.Microsecond))
	fmt.Printf("%-14s %14.6f  (gap %.6f vs bound)\n", "nbo", g.NBOLogNetP, g.BoundGap)
	fmt.Printf("%-14s %14.6f  (gap %.6f vs oracle)\n", "reservedca", g.ReservedLogNetP, g.OracleLogNetP-g.ReservedLogNetP)
	if !g.Proven {
		fmt.Println("budget exhausted: the oracle line is the best plan found; the bound still certifies NBO's gap")
	}
}

// scenarios maps the -scenario flag to a builder.
var scenarios = map[string]func(int64) *topo.Scenario{
	"office": topo.Office,
	"campus": topo.Campus,
	"museum": topo.Museum,
	"school": topo.School,
	"hotel":  topo.Hotel,
}

// planOnce runs one deep TurboCA pass (hops 2,1,0) on the 5 GHz band
// through the backend's own service, which snapshots the planner input
// and pushes the accepted plan to the APs.
func planOnce(build func(int64) *topo.Scenario, seed int64, workers int) {
	sc := build(seed)
	opt := backend.DefaultOptions(backend.AlgTurboCA)
	opt.Planner.Workers = workers
	be := backend.New(opt, sc, sim.NewEngine(seed))
	be.Service.Bands = []spectrum.Band{spectrum.Band5}
	fmt.Printf("%v\n", sc)
	before := be.Report(0, 0)
	fmt.Printf("before: widths=%v dfs=%d\n", before.Widths, before.DFSCount)
	be.Service.RunOnce([]int{2, 1, 0})
	after := be.Report(0, 0)
	fmt.Printf("after:  widths=%v dfs=%d\n", after.Widths, after.DFSCount)
	fmt.Println(sc.RenderPlan(72, 18))
	fmt.Printf("switches=%d logNetP=%.1f improved=%v\n",
		be.Switches(), be.Service.LastLogNetP[spectrum.Band5], be.Service.ImprovedTotal > 0)

	// Channel histogram.
	counts := map[int]int{}
	for _, ap := range sc.APs {
		counts[ap.Channel.Number]++
	}
	var chans []int
	for c := range counts {
		chans = append(chans, c)
	}
	sort.Ints(chans)
	for _, c := range chans {
		fmt.Printf("  ch%-4d %3d APs %s\n", c, counts[c], strings.Repeat("#", min(counts[c], 60)))
	}
}

// evalAB runs the §4.6 A/B through the figure runner's shared deployment
// run, with this command's worker count, fault profile and RF traces, and
// prints the two arms side by side.
func evalAB(build func(int64) *topo.Scenario, days int, seed int64, workers int, prof *faults.Profile, rfTrace bool, reg *obs.Registry) {
	res := experiments.RunAB(experiments.AB{
		Build: build, Seed: seed, EngineSeed: seed, Dur: sim.Time(days) * sim.Day,
		Tune: func(opt *backend.Options) {
			opt.Planner.Workers = workers
			opt.Faults = prof
			if rfTrace {
				// Fresh Env per algorithm: the traces replay identically from
				// the seed, while the (mutable) quarantine state stays private.
				opt.RF = rfenv.NewEnv(
					rfenv.NewTraceSet(seed, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions()), nil)
			}
			// Each arm's control stats are read before the next backend is
			// built, so the shared serving registry still yields exact
			// per-instance deltas.
			opt.Obs = reg
		},
	})
	arms := []experiments.ABArm{res.Reserved, res.Turbo}
	fmt.Printf("%-12s %10s %12s %10s %9s\n", "algorithm", "usage(TB)", "latP50(ms)", "effP50", "switches")
	for _, a := range arms {
		fmt.Printf("%-12s %10.3f %12.1f %10.3f %9d\n", a.Alg,
			a.DailyTB.Sum(), a.Latency.Median(), a.Efficiency.Median(), a.Switches)
	}
	if prof != nil {
		fmt.Printf("%-12s %8s %8s %8s %8s %8s %8s %8s\n", "control",
			"dropped", "delayed", "corrupt", "rejected", "pushfail", "retries", "reconcile")
		for _, a := range arms {
			c := a.Control
			fmt.Printf("%-12s %8d %8d %8d %8d %8d %8d %8d\n", a.Alg,
				c.PollsDropped, c.PollsDelayed, c.PollsCorrupted, c.PollsRejected,
				c.PushesFailed, c.PushRetries, c.Reconciliations)
		}
	}
	if a, b := res.Reserved, res.Turbo; a.DailyTB.Sum() > 0 {
		fmt.Printf("usage %+0.1f%%, latency %+0.1f%%, efficiency %+0.1f%%\n",
			100*(b.DailyTB.Sum()-a.DailyTB.Sum())/a.DailyTB.Sum(),
			100*(b.Latency.Median()-a.Latency.Median())/a.Latency.Median(),
			100*(b.Efficiency.Median()-a.Efficiency.Median())/a.Efficiency.Median())
	}
}

// Command fleetd drives a synthesized fleet of networks through the
// fleet control plane (internal/fleetd): one process, one priority
// cadence scheduler, thousands of per-network TurboCA control planes
// (dirty-skip always on), an hourly progress line, and a fleet-wide
// snapshot report at the end.
//
// With -store the controller runs crash-safe: every mutation is
// journaled write-ahead to <dir>/journal.jsonl, state checkpoints land
// atomically in <dir>/checkpoint (the one before in checkpoint.prev), and
// a restart restores the newest checkpoint the journal vouches for and
// replays the journal after it, to exactly where the previous process
// died. SIGINT/SIGTERM trigger a
// final graceful checkpoint-and-exit; the exit code distinguishes a
// clean, fully-durable stop (0) from a dirty one (1).
//
// Usage:
//
//	fleetd -networks 1000 -hours 6
//	fleetd -networks 200 -chaos -budget 64 -metrics localhost:6060
//	fleetd -networks 500 -store /var/lib/fleetd   # kill -9 it, rerun, it resumes
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/obs"
	"repro/internal/sim"
)

func main() {
	os.Exit(run())
}

func run() int {
	networks := flag.Int("networks", 1000, "number of synthesized networks")
	workers := flag.Int("workers", 0, "concurrent pass executors (0 = GOMAXPROCS); results are identical for any value")
	hours := flag.Int("hours", 6, "simulated hours to run the fleet")
	seed := flag.Int64("seed", 2017, "fleet synthesis and control-plane seed")
	budget := flag.Int("budget", 0, "max planning passes per scheduler tick; excess sheds deepest-first (0 = unlimited)")
	chaos := flag.Bool("chaos", false, "inject the default chaos fault profile into every network's control path")
	storm := flag.Bool("storm", false, "hostile RF: fleet-correlated DFS radar storms plus per-network spectrum occupancy traces; struck sub-channels serve a 30-minute non-occupancy period")
	stormsPerDay := flag.Float64("storms-per-day", 2, "expected correlated radar storms per day (requires -storm)")
	storeDir := flag.String("store", "", "durability directory (journal + checkpoints); restart restores the newest vouched checkpoint, replays the journal after it and resumes where the last process stopped")
	ckptEvery := flag.Duration("checkpoint-every", time.Hour, "simulated time between periodic checkpoints (requires -store)")
	passDeadline := flag.Duration("pass-deadline", 0, "wall-clock watchdog per planning pass; a pass exceeding it is cancelled and its network quarantined (0 = off)")
	metricsAddr := flag.String("metrics", "", "serve metrics JSON (/metrics), text (/metrics.txt), span traces (/trace), and net/http/pprof on this address (e.g. localhost:6060) while the run executes")
	flag.Parse()

	reg := obs.NewRegistry()
	stopMetrics := obs.ServeFlag(*metricsAddr, reg)
	defer stopMetrics()

	opt := backend.DefaultOptions(backend.AlgTurboCA)
	if *chaos {
		opt.Faults = faults.DefaultChaos(*seed)
	}

	cfg := fleetd.Config{
		Seed:             *seed,
		Workers:          *workers,
		MaxPassesPerTick: *budget,
		StormRF:          *storm,
		StormsPerDay:     *stormsPerDay,
		PassDeadline:     *passDeadline,
		CheckpointEvery:  sim.Time(ckptEvery.Microseconds()),
		Backend:          opt,
		Obs:              reg,
	}

	start := time.Now()
	var c *fleetd.Controller
	if *storeDir != "" {
		store, err := fleetd.NewDirStore(*storeDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetd:", err)
			return 1
		}
		defer store.Close()
		c, err = fleetd.Open(cfg, store)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fleetd: recovery:", err)
			return 1
		}
		if c.Now() > 0 {
			fmt.Printf("recovered: newest vouched checkpoint plus the journal after it, to t=%s in %.3fs\n",
				fmtSim(c.Now()), time.Since(start).Seconds())
		}
	} else {
		c = fleetd.New(cfg)
	}

	if c.Len() == 0 {
		f := fleet.Generate(fleet.Options{Seed: *seed, Networks: *networks})
		if err := c.AddFleet(f); err != nil {
			fmt.Fprintln(os.Stderr, "fleetd: register fleet:", err)
			return 1
		}
		fmt.Printf("fleet: %d networks registered in %.1fs\n", c.Len(), time.Since(start).Seconds())
	}

	// SIGINT/SIGTERM: finish the in-flight advance is not possible
	// mid-tick from here, so request a stop between hours; the final
	// Close writes a graceful checkpoint + clean-shutdown marker.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	interrupted := false

	end := c.Now() + sim.Time(*hours)*sim.Hour
	for c.Now() < end && !interrupted {
		if err := c.RunTo(c.Now() + sim.Hour); err != nil {
			fmt.Fprintln(os.Stderr, "fleetd: run:", err)
			return 1
		}
		fmt.Printf("t=%s %s", fmtSim(c.Now()), hourLine(c))
		select {
		case s := <-sigc:
			fmt.Fprintf(os.Stderr, "fleetd: %v: writing final checkpoint\n", s)
			interrupted = true
		default:
		}
	}
	signal.Stop(sigc)

	fmt.Println()
	fmt.Print(c.Snapshot())
	if *metricsAddr != "" {
		fmt.Println("--- metrics ---")
		_, _ = reg.Snapshot().WriteText(os.Stdout)
	}

	if err := c.Close(); err != nil {
		// The state survives — the journal replays — but the shutdown was
		// not fully durable: exit dirty so supervisors know to expect a
		// replay on next start.
		if !errors.Is(err, fleetd.ErrKilled) {
			fmt.Fprintln(os.Stderr, "fleetd: dirty shutdown:", err)
		}
		return 1
	}
	return 0
}

// fmtSim renders a fleet clock as hours.
func fmtSim(t sim.Time) string {
	return fmt.Sprintf("%.1fh", float64(t)/float64(sim.Hour))
}

// hourLine condenses the fleet state into one progress line.
func hourLine(c *fleetd.Controller) string {
	s := c.Snapshot()
	line := fmt.Sprintf("passes i0=%d i1=%d i2=%d skipped=%d shed=%d converged=%d/%d switches=%d logNetP5.p50=%.1f",
		s.Passes[0], s.Passes[1], s.Passes[2], c.SkippedFastPasses(),
		s.Shed[0]+s.Shed[1]+s.Shed[2],
		s.ConvergedNets, len(s.Networks), s.TotalSwitches, s.LogNetP5.P50)
	if s.QuarantinedNets > 0 {
		line += fmt.Sprintf(" quarantined=%d", s.QuarantinedNets)
	}
	return line + "\n"
}

package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"time"

	"repro/internal/backend"
	"repro/internal/fleet"
	"repro/internal/fleetd"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// The control-plane workloads. --seed drives everything the controller
// derives per network (client mixes, demand, interferer duty cycles, engine
// and backend streams, planner seeds); site geometry is fixed. Geometry is
// what the cost of a fleet hangs on: network sizes are log-normal, so two
// 64-network fleets drawn from different seeds differ by ±40 % in wall time,
// which no repeat count affordable here averages out.
const (
	geometrySeed = 20170811
	// fleetMaxAPs clamps the size draw so that no single network's critical
	// path decides a sweep; plan_dense covers the large graph.
	fleetMaxAPs = 48
)

func hash64(parts ...any) string {
	h := fnv.New64a()
	fmt.Fprint(h, parts...)
	return fmt.Sprintf("%016x", h.Sum64())
}

// controlLayers reads the fleetd, turboca and backend counts a registry
// holds. Each repeat has a private registry, so the totals are the repeat's.
func controlLayers(rc *runCtx, s obs.Snapshot) {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	h := func(name string) obs.HistSnapshot { return s.Histograms[name] }

	rc.layer("fleetd.passes_i0", c("fleetd.passes_i0"))
	rc.layer("fleetd.passes_i1", c("fleetd.passes_i1"))
	rc.layer("fleetd.passes_i2", c("fleetd.passes_i2"))
	rc.layer("fleetd.skipped_i0", c("fleetd.skipped_i0"))
	// Each pass plans both bands; skipped_i0 counts band-invocations.
	rc.layer("fleetd.skip_ratio", ratio(c("fleetd.skipped_i0"), 2*c("fleetd.passes_i0")))
	rc.layer("fleetd.ingest_rows", c("fleetd.ingest_rows"))
	rc.layer("fleetd.journal_records", c("fleetd.journal_records"))
	rc.layer("fleetd.ckpt_commits", c("fleetd.ckpt_commits"))
	rc.layer("fleetd.shed", c("fleetd.shed_i0")+c("fleetd.shed_i1")+c("fleetd.shed_i2"))
	rc.layer("fleetd.quarantined", c("fleetd.quarantined"))
	rc.layer("fleetd.pass_us_mean", h("fleetd.pass_us").Mean)
	rc.layer("fleetd.pass_us_p99", float64(h("fleetd.pass_us").P99))
	ing := h("fleetd.ingest_us")
	rc.layer("fleetd.ingest_ms", ing.Mean*float64(ing.Count)/1e3)
	rc.layer("fleetd.sched_lag_us_p99", float64(h("fleetd.sched_lag_us").P99))

	rc.layer("turboca.passes", c("turboca.passes"))
	rc.layer("turboca.nbo_rounds", c("turboca.nbo_rounds"))
	rc.layer("turboca.accept_ratio", ratio(c("turboca.rounds_accepted"),
		c("turboca.rounds_accepted")+c("turboca.rounds_rejected")))
	rc.layer("turboca.rescore_reuse_ratio", ratio(c("turboca.rescore_reused"),
		c("turboca.rescore_reused")+c("turboca.rescore_fresh")))
	rc.layer("turboca.switches_planned", c("turboca.switches_planned"))
	rc.layer("turboca.pass_us_mean", h("turboca.pass_us").Mean)

	rc.layer("backend.polls_attempted", c("backend.polls_attempted"))
	rc.layer("backend.pushes_attempted", c("backend.pushes_attempted"))
	rc.layer("backend.push_fail_ratio", ratio(c("backend.pushes_failed"), c("backend.pushes_attempted")))
	rc.layer("backend.reconciliations", c("backend.reconciliations"))
	rc.layer("backend.poll_pass_us_mean", h("backend.poll_pass_us").Mean)
	rc.layer("backend.reconcile_pass_us_mean", h("backend.reconcile_pass_us").Mean)
	rc.layer("backend.nop_violations", c("backend.nop_violations"))
}

// runFleet is fleet_converge (ephemeral controller) and fleet_durable (the
// same control plane against a DirStore, then closed and recovered).
//
//	setup   fleet.Generate + fleetd.New/Open + AddFleet (registration is lazy)
//	cold    the first Run(15m): every network builds and plans unconverged
//	steady  15-minute ticks to the horizon; durable adds Close and the
//	        replay recovery by a second Open on the same directory
func runFleet(rc *runCtx, seed int64, durable bool) {
	rep := rc.rep
	nets, horizon := rc.size.fleetNets, rc.size.fleetHorizon
	if durable {
		nets, horizon = rc.size.durableNets, rc.size.durableHorizon
	}
	reg := rc.registry()
	cfg := fleetd.Config{Seed: seed, Workers: rc.procs, Obs: reg}
	if durable {
		cfg.CheckpointEvery = sim.Hour
	}

	var (
		c     *fleetd.Controller
		store *fleetd.DirStore
		dir   string
	)
	fail := func(what string, err error) bool {
		if err != nil {
			rep.failf("%s: %v", what, err)
		}
		return err != nil
	}
	discard := func() {
		c = nil
		if store != nil {
			_ = store.Close() // nothing was written that a later step reads
			store = nil
		}
		if dir != "" {
			_ = os.RemoveAll(dir)
			dir = ""
		}
	}
	defer discard()
	var p phases
	p.setupsS = rc.setup(func() {
		var f *fleet.Fleet
		rc.tr.span("fleet.generate", 1, func() {
			f = fleet.Generate(fleet.Options{Seed: geometrySeed, Networks: nets, MaxAPs: fleetMaxAPs})
		})
		var err error
		if durable {
			if err = os.MkdirAll(rc.workdir, 0o755); err == nil {
				dir, err = os.MkdirTemp(rc.workdir, "durable-")
			}
			if fail("store dir", err) {
				return
			}
			if store, err = fleetd.NewDirStore(dir); fail("store", err) {
				return
			}
			c, err = fleetd.Open(cfg, store)
			if fail("open", err) {
				return
			}
		} else {
			c = fleetd.New(cfg)
		}
		fail("add fleet", c.AddFleet(f))
	}, discard)
	if len(rep.problems) > 0 {
		return
	}

	const tick = 15 * sim.Minute
	p.coldS = rc.timed("fleetd.run_cold", func() { fail("cold run", c.RunTo(tick)) })
	cold := c.Snapshot()
	p.steadyMem[0] = readMem()
	for t := 2 * tick; t <= horizon; t += tick {
		t := t
		p.unitsMS = append(p.unitsMS, 1e3*rc.timed("fleetd.run_tick", func() { fail("run", c.RunTo(t)) }))
	}
	p.steadyMem[1] = readMem()

	var snap fleetd.Snapshot
	rc.tr.span("fleetd.snapshot", 1, func() { snap = c.Snapshot() })
	var state []byte
	rc.tr.span("fleetd.checkpoint", 1, func() { state = c.CheckpointBytes() })

	if durable {
		jb, err := store.JournalBytes()
		fail("journal", err)
		ck, _, err := store.Checkpoint()
		fail("checkpoint", err)
		rc.layer("fleetd.journal_bytes", float64(len(jb)))
		rc.layer("fleetd.ckpt_bytes", float64(len(ck)))

		// Close, then recover on a fresh registry so the live run's counts
		// are not doubled by the replay.
		t0 := time.Now()
		rc.tr.span("fleetd.close", 1, func() {
			fail("close", c.Close())
			fail("close store", store.Close())
		})
		var c2 *fleetd.Controller
		rcfg := cfg
		rcfg.Obs = obs.NewRegistry()
		recS := rc.timed("fleetd.recover", func() {
			var err error
			if store, err = fleetd.NewDirStore(dir); fail("reopen store", err) {
				return
			}
			c2, err = fleetd.Open(rcfg, store)
			fail("recover", err)
		})
		p.extraSteadyS = time.Since(t0).Seconds()
		rc.layer("fleetd.recovery_s", recS)
		if c2 != nil {
			if c2.Now() != horizon {
				rep.failf("recovered clock %v, want %v", c2.Now(), horizon)
			}
			if !bytes.Equal(c2.CheckpointBytes(), state) {
				rep.failf("recovered checkpoint bytes differ from the live controller's")
			}
		}
	}

	passes := func(s fleetd.Snapshot) (n int) {
		for _, v := range s.Passes {
			n += v
		}
		return n
	}
	shed := 0
	for _, v := range snap.Shed {
		shed += v
	}
	p.work = float64(passes(snap) - passes(cold))
	p.sizeUnits = float64(len(snap.Networks))
	// Fleet-wide geometric mean of the per-AP success probability: NetP is a
	// product over APs, so its per-AP root is comparable across fleets.
	logNetP := 0.0
	for _, ns := range snap.Networks {
		logNetP += ns.LogNetP5
	}
	p.quality = math.Exp(logNetP / float64(snap.TotalAPs))

	s := reg.Snapshot()
	controlLayers(rc, s)
	panics := int(s.Counters["fleetd.pass_panics"])
	nop := int(s.Counters["backend.nop_violations"])
	rep.ops = passes(snap) + shed
	rep.failed = shed + snap.QuarantinedNets + panics + nop
	if snap.QuarantinedNets+panics+nop > 0 {
		rep.failf("%d quarantined, %d pass panics, %d NOP violations", snap.QuarantinedNets, panics, nop)
	}
	rep.fingerprint = hash64(snap.Passes, snap.TotalSwitches, snap.LogNetP5, state)
	rc.tr.adopt(reg, rc.spanStart)
	rc.finish(p, c, snap)
}

// denseScenario is half a topo.Stadium: the same 90 m² per AP, 40 clients
// per AP and event-day load curve on half the bowl, so a pass takes a third
// of a second and a repeat fits the run.
func denseScenario() *topo.Scenario {
	return topo.Generate(topo.ScenarioOptions{
		Seed: geometrySeed, Name: "stadium-half",
		APCount: 200, AreaW: 200, AreaH: 90, Grid: true,
		MeanClients: 40, DemandMbps: 90,
		Interferers: 10, Load: topo.MuseumLoad,
	})
}

// runDense is plan_dense: one large dense interference graph driven
// stand-alone, the way fleetd drives a network but with nothing else around.
//
//	setup   topo.Generate + backend.New + StartManaged
//	cold    engine to the first deadline + the first RunOnce (input template
//	        built, plan unconverged)
//	steady  the remaining passes; the last carries the §4.4.4 mid schedule
//	        {1,0}, the others {0}
func runDense(rc *runCtx, seed int64) {
	rep := rc.rep
	reg := rc.registry()
	var (
		sc  *topo.Scenario
		eng *sim.Engine
		be  *backend.Backend
	)
	var p phases
	p.setupsS = rc.setup(func() {
		rc.tr.span("topo.generate", 1, func() { sc = denseScenario() })
		rc.tr.span("backend.new", 1, func() {
			eng = sim.NewEngine(seed)
			opt := backend.DefaultOptions(backend.AlgTurboCA)
			opt.Seed = seed
			opt.Obs = reg
			be = backend.New(opt, sc, eng)
			be.StartManaged()
		})
	}, func() { sc, eng, be = nil, nil, nil })

	n := rc.size.densePasses
	pass := func(i int) float64 {
		hops := []int{0}
		if i == n {
			hops = []int{1, 0}
		}
		var s float64
		rc.tr.inPass(func() {
			s = rc.timed("bench.pass", func() {
				rc.tr.span("sim.run_until", 1, func() { eng.RunUntil(sim.Time(i) * rc.size.denseStep) })
				rc.tr.span("turboca.service_run_once", 1, func() { be.Service.RunOnce(hops) })
			})
		})
		return s
	}
	p.coldS = pass(1)
	p.steadyMem[0] = readMem()
	for i := 2; i <= n; i++ {
		p.unitsMS = append(p.unitsMS, 1e3*pass(i))
	}
	p.steadyMem[1] = readMem()
	p.work = float64(n - 1)
	p.sizeUnits = float64(len(sc.APs))
	p.quality = math.Exp(be.Service.LastLogNetP[spectrum.Band5] / float64(len(sc.APs)))

	controlLayers(rc, reg.Snapshot())
	nop := be.Control().NOPViolations
	rep.ops = n
	rep.failed = nop
	if nop > 0 {
		rep.failf("%d NOP violations", nop)
	}
	var plan []any
	for _, ap := range sc.APs {
		plan = append(plan, ap.Channel, ap.Channel24)
	}
	rep.fingerprint = hash64(plan, be.Switches(), be.Service.LastLogNetP)
	rc.tr.adopt(reg, rc.spanStart)
	rc.finish(p, sc, eng, be)
}

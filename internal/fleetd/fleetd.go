// Package fleetd is the fleet control plane: one process driving
// thousands of networks, each with its own deterministic control plane —
// the production shape of the paper's system, where TurboCA runs
// centrally over the whole Meraki fleet (§4.4.4) rather than per site.
//
// The architecture has three moving parts:
//
//   - A registry of per-network control planes. Each network
//     wraps today's backend.Backend — private simulation engine, private
//     RNG streams, optionally a private chaos profile — built from a seed
//     derived from (controller seed, network ID) alone.
//
//   - A priority cadence scheduler: a deadline min-heap with one entry
//     per (network, cadence level), honoring the paper's multi-cadence
//     schedule (i=0 every 15 min, i=1 every 3 h, i=2 daily). Ties on a
//     deadline resolve in ascending network-ID order; when a tick's due
//     passes exceed the configured budget, deep passes shed first (i=2,
//     then i=1, then i=0) — the same "don't do expensive work under
//     pressure" policy as the planner's stale-input degradation.
//
//   - A bounded worker pool that executes one tick's surviving passes
//     concurrently. Networks are mutually independent, so parallel
//     execution cannot perturb results: a fleet snapshot is byte-identical
//     for any -workers setting.
//
// A pass brings back only what the tick's serial section reads (its
// dirty-skip count); the controller keeps no telemetry store of its own.
// Snapshot reads the networks' current state directly.
package fleetd

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Config sizes and parameterizes a Controller.
type Config struct {
	// Seed anchors every per-network derivation (scenario synthesis,
	// engine, backend, chaos). Two controllers with equal Seed and equal
	// network sets produce byte-identical snapshots.
	Seed int64
	// Workers bounds concurrently executing passes (default GOMAXPROCS).
	// Results are identical for any value.
	Workers int
	// Fast, Mid, Deep are every network's cadences for the three pass
	// levels (defaults turboca.FastCadence, MidCadence, DeepCadence: the
	// §4.4.4 schedule). Negative disables a level fleet-wide.
	Fast, Mid, Deep sim.Time
	// MaxPassesPerTick is the overload budget: when more passes share a
	// deadline tick than this, the excess is shed, deepest level first.
	// 0 means unlimited.
	MaxPassesPerTick int
	// Backend is the per-network control-plane template. Seed is
	// overridden per network; a non-nil Faults profile is cloned with a
	// per-network seed; Obs is overridden with the controller's registry
	// (per-network private registries would dominate resident memory at
	// fleet scale); DirtySkip is always on (on a steady-state fleet most
	// i=0 passes are provable no-op replays, so skipping them is exact);
	// per-network telemetry history is disabled (nothing in the fleet
	// reads it). Zero value means backend defaults with AlgTurboCA.
	Backend backend.Options
	// Obs receives the controller's own "fleetd" scope and every
	// network's backend and planner scopes. Nil gives the controller a
	// private registry.
	Obs *obs.Registry
	// CheckpointEvery is the periodic checkpoint cadence on the fleet
	// clock when the controller runs against a Store (Open defaults it to
	// one hour; negative disables periodic checkpoints — forced
	// Checkpoint/Close still work). Ignored without a store.
	CheckpointEvery sim.Time
	// PassDeadline is the wall-clock watchdog per planning pass: a pass
	// still running this long after dispatch has its backend context
	// cancelled and its network quarantined. 0 disables the watchdog.
	PassDeadline time.Duration
	// Proc injects process-level chaos (seeded kills, checkpoint-write
	// failures, torn journal tails, pass panics and wedges) for the
	// crash-safety campaign. Nil means no injected process faults.
	Proc *faults.ProcProfile
	// StormRF attaches a hostile-RF environment to every network: seeded
	// per-20MHz spectrum-occupancy traces (private to each network, derived
	// from its network seed) plus one fleet-correlated radar-storm schedule
	// derived from Seed alone — a storm strikes every network's copy of the
	// struck DFS range in the same instant, so the whole fleet sees the
	// quarantine within one cadence window. Off by default; folded into the
	// config digest because it changes state bytes.
	StormRF bool
	// StormsPerDay is the mean correlated-storm arrival rate when StormRF
	// is on (default 2 per day; Poisson arrivals).
	StormsPerDay float64
	// StormHorizon bounds the generated storm schedule (default 7 days).
	StormHorizon sim.Time
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Fast == 0 {
		c.Fast = turboca.FastCadence
	}
	if c.Mid == 0 {
		c.Mid = turboca.MidCadence
	}
	if c.Deep == 0 {
		c.Deep = turboca.DeepCadence
	}
	if c.Backend.Algorithm == backend.AlgNone {
		// An all-zero template means "production defaults" (TurboCA and
		// its planner tunables), not "no algorithm".
		c.Backend = backend.DefaultOptions(backend.AlgTurboCA)
	}
	if c.Obs == nil {
		c.Obs = obs.NewRegistry()
	}
	if c.StormRF {
		if c.StormsPerDay == 0 {
			c.StormsPerDay = 2
		}
		if c.StormHorizon == 0 {
			c.StormHorizon = 7 * sim.Day
		}
	}
	return c
}

// digest folds the result-affecting configuration into the journal's
// config record, so a journal is never replayed under a configuration
// that would reconstruct different state. Workers/Obs and the
// wall-clock knobs are deliberately excluded: they never affect state
// bytes. The last two slots hold turboca.Format and ckptFormat: a journal
// written under another planner or checkpoint format would diverge at its
// first checkpoint, so Open refuses it up front.
func (c Config) digest() uint64 {
	h := fnv.New64a()
	wr := func(vs ...int64) {
		for _, v := range vs {
			h.Write([]byte(strconv.FormatInt(v, 10)))
			h.Write([]byte{0})
		}
	}
	wr(c.Seed, int64(c.Fast), int64(c.Mid), int64(c.Deep),
		int64(c.MaxPassesPerTick), int64(c.CheckpointEvery))
	if c.StormRF {
		wr(1, int64(math.Float64bits(c.StormsPerDay)), int64(c.StormHorizon))
	} else {
		wr(0)
	}
	wr(turboca.Format, ckptFormat)
	return h.Sum64()
}

// netState is one registered network's control plane plus its scheduling
// accounting. The backend/engine/scenario are touched only by the single
// worker executing this network's pass (ticks never run a network twice);
// the accounting fields are written in the controller's serial tick
// section.
//
// Construction is lazy: registration stores only a build closure plus the
// AP count, and the scenario/engine/backend materialize on the first pass
// or engine sync (ensureBuilt). Registering a fleet is therefore O(1) per
// network, and a network's full control plane is only ever resident once
// the scheduler actually touches it. Laziness cannot perturb results:
// the engine is deterministic and replays its whole schedule on the first
// RunUntil, so building at time T is indistinguishable from having built
// at registration.
type netState struct {
	id      int
	key     string
	apCount int
	// build constructs the scenario, engine and backend, nothing started;
	// non-nil until the network is built (ensureBuilt, or a restore).
	build  func()
	sc     *topo.Scenario
	engine *sim.Engine
	be     *backend.Backend

	passes    [numLevels]int
	shed      [numLevels]int
	coalesced int

	// quarantined marks a network whose pass faulted (panic or watchdog
	// cancellation): it is dropped from the scheduler, skipped by engine
	// syncs, and its backend-derived state is excluded from snapshot rows
	// and checkpoints (live).
	quarantined bool
}

// ensureBuilt materializes the network's control plane and starts its
// schedules. Callers must hold exclusive use of the netState (the
// per-tick single-worker rule).
func (ns *netState) ensureBuilt() {
	if ns.build != nil {
		ns.construct()
		ns.be.StartManaged()
	}
}

// construct runs the build closure once and drops it, so the captured
// fleet.Network can be collected.
func (ns *netState) construct() {
	f := ns.build
	ns.build = nil
	f()
}

// Controller drives a fleet of networks off one cadence scheduler.
// Run, Add*, and Snapshot must be called from one goroutine (the
// control loop); the worker pool is internal.
type Controller struct {
	cfg Config
	// reg is the network registry, under mu. Every lookup on the tick
	// path is serial and a pass touches only its own netState.
	mu    sync.RWMutex
	reg   map[int]*netState
	sched scheduler
	// cadence is Config.Fast/Mid/Deep by level, 0 where disabled: every
	// network runs the same schedule.
	cadence [numLevels]sim.Time
	now     sim.Time
	met     *metrics

	// Durability (nil store = ephemeral controller, PR 1-6 behavior).
	// storms is the fleet-correlated radar schedule (Config.StormRF),
	// derived from cfg.Seed alone and shared read-only by every network's
	// RF environment — correlation is the point.
	storms []rfenv.Storm

	store      Store
	seq        int          // last journal sequence number written or replayed
	replay     *replayState // non-nil while Open replays; nil once live
	proc       *faults.ProcInjector
	dead       bool // the store reported ErrKilled; every run refuses
	nextCkptAt sim.Time
	ckptSize   int // the last checkpoint blob's length
}

// New builds an empty controller; register networks with Add or AddFleet.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, reg: map[int]*netState{}, met: metricsOn(cfg.Obs)}
	for level, period := range [numLevels]sim.Time{cfg.Fast, cfg.Mid, cfg.Deep} {
		c.cadence[level] = max(period, 0)
	}
	c.proc = faults.NewProc(cfg.Proc)
	if cfg.StormRF {
		c.storms = rfenv.StormSchedule(cfg.Seed, cfg.StormHorizon, cfg.StormsPerDay)
	}
	if cfg.CheckpointEvery > 0 {
		c.nextCkptAt = cfg.CheckpointEvery
	}
	return c
}

// appendRecord stamps the next sequence number and durably appends one
// journal record. A store kill marks the controller dead; the caller's
// run aborts with ErrKilled.
func (c *Controller) appendRecord(r jrec) error {
	if c.store == nil {
		return nil
	}
	c.seq++
	r.Seq = c.seq
	line, err := encodeRecord(r)
	if err != nil {
		c.seq--
		return err
	}
	if err := c.store.AppendJournal(line); err != nil {
		if errors.Is(err, ErrKilled) {
			c.dead = true
		}
		return err
	}
	c.met.journalRecords.Inc()
	return nil
}

// Now returns the fleet clock.
func (c *Controller) Now() sim.Time { return c.now }

// SkippedFastPasses reports how many fast band-invocations the planning
// services elided as provable no-ops (the fleetd.skipped_i0 counter on
// this controller's registry). Deliberately not part of Snapshot: a
// skipped pass leaves every snapshot byte where running it would.
func (c *Controller) SkippedFastPasses() int64 { return c.met.skippedI0.Value() }

// Len returns the number of registered networks.
func (c *Controller) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.reg)
}

// get returns the registered network with this ID, or nil.
func (c *Controller) get(id int) *netState {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.reg[id]
}

// netSeed derives a network's seed from the controller seed and the
// network ID alone (splitmix64-style), so registration order and
// worker count cannot perturb any network's behavior.
func netSeed(seed int64, id int) int64 {
	return int64(sim.Mix64(uint64(seed) + 0x9e3779b97f4a7c15*uint64(id+1)))
}

// AddFleet registers every network of a synthesized fleet. Registration
// only records the build closure and cadence deadlines (see netState), so
// this is cheap even at 100k networks; the control planes materialize on
// the worker pool as the scheduler first reaches them.
//
// Against a store, the registration intent is journaled first: a
// generated fleet costs one record (its fleet.Options — replay re-runs
// fleet.Generate), a hand-assembled one falls back to one record per
// network. A fleet holding an ID that is already registered, or holding
// one ID twice, is refused whole before anything is journaled, as is a
// journal-append failure: either leaves nothing registered.
func (c *Controller) AddFleet(f *fleet.Fleet) error {
	if err := c.refuseRegistered(f.Networks); err != nil {
		return err
	}
	if c.store != nil {
		if f.Opt.Networks > 0 {
			opt := f.Opt
			if err := c.appendRecord(jrec{Op: opAddFleet, Fleet: &opt}); err != nil {
				return err
			}
		} else {
			for _, n := range f.Networks {
				if err := c.appendRecord(jrec{Op: opAdd, Net: n}); err != nil {
					return err
				}
			}
		}
	}
	c.addFleet(f)
	return nil
}

func (c *Controller) addFleet(f *fleet.Fleet) {
	for _, n := range f.Networks {
		c.add(n)
	}
}

// Add registers one network on the controller's cadences, journaling the
// intent (network inlined) when a store is attached. An ID that is already
// registered is refused before anything is journaled.
func (c *Controller) Add(n *fleet.Network) error {
	if err := c.refuseRegistered([]*fleet.Network{n}); err != nil {
		return err
	}
	if err := c.appendRecord(jrec{Op: opAdd, Net: n}); err != nil {
		return err
	}
	c.add(n)
	return nil
}

// refuseRegistered names the first network of nets whose ID is already
// registered or repeats an earlier entry of nets. Registering it would
// overwrite the registry entry and arm a second set of deadlines for the
// ID.
func (c *Controller) refuseRegistered(nets []*fleet.Network) error {
	c.mu.RLock()
	defer c.mu.RUnlock()
	seen := make(map[int]bool, len(nets))
	for _, n := range nets {
		if c.reg[n.ID] != nil || seen[n.ID] {
			return fmt.Errorf("fleetd: duplicate network ID %d", n.ID)
		}
		seen[n.ID] = true
	}
	return nil
}

func (c *Controller) add(n *fleet.Network) {
	c.register(c.buildNet(n))
}

// buildNet prepares a network's registration shell and its deferred
// control-plane constructor: scenario, engine, backend, chaos clone —
// everything derived from netSeed, so the build runs identically whenever
// it fires.
func (c *Controller) buildNet(n *fleet.Network) *netState {
	seed := netSeed(c.cfg.Seed, n.ID)
	bopt := c.cfg.Backend
	bopt.Seed = seed
	// All per-network backends share the controller's registry: a private
	// registry per network would cost ~60 KB of histogram buckets each —
	// the dominant per-network resident term at fleet scale — and fleetd
	// never reads per-network Control() deltas. Counters and histograms
	// are order-independent atomics, so fleet-wide aggregation cannot
	// perturb results.
	bopt.Obs = c.cfg.Obs
	bopt.Planner.Obs = nil // derive from the shared registry's turboca scope
	bopt.DirtySkip = true
	// Per-network report history is the standalone Report API's data and
	// nothing in the fleet reads it, so keeping per-AP history rows
	// resident in every network would only burn memory (see
	// backend.Options.DisableTelemetryHistory — planning and rng streams
	// are unaffected).
	bopt.DisableTelemetryHistory = true
	if bopt.Faults != nil {
		prof := *bopt.Faults
		prof.Seed = seed ^ 0xfa17
		bopt.Faults = &prof
	}
	ns := &netState{
		id:      n.ID,
		key:     netKey(n.ID),
		apCount: len(n.APs),
	}
	ns.build = func() {
		ns.sc = buildScenario(n, seed)
		ns.engine = sim.NewEngineCompact(seed ^ 0x0e1f)
		if c.cfg.StormRF {
			// The Env is per network (the quarantine table is mutable
			// control-plane state) but the storm schedule is the
			// controller's shared, fleet-correlated one; only the
			// interference traces derive from the network seed.
			traces := rfenv.NewTraceSet(seed^0x7f5e, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions())
			bopt.RF = rfenv.NewEnv(traces, c.storms)
		}
		ns.be = backend.New(bopt, ns.sc, ns.engine)
	}
	return ns
}

// register inserts the network and seeds its deadlines at now+cadence.
func (c *Controller) register(ns *netState) {
	c.mu.Lock()
	c.reg[ns.id] = ns
	c.mu.Unlock()
	c.met.networks.Add(1)
	for level, period := range c.cadence {
		if period > 0 {
			c.sched.push(passEntry{at: c.now + period, id: ns.id, level: level})
		}
	}
}

// passJob is one network's work at a tick: the deepest due level plus
// every shallower level it subsumes.
type passJob struct {
	ns     *netState
	level  int   // deepest due level; its hop schedule runs
	levels []int // all due levels (deepest included), each re-armed
	// res is what the job's worker brought back; nil when the job was shed.
	res *passResult
}

// passResult is what a worker brings back to the tick's serial section.
type passResult struct {
	// skipped counts band-invocations within this pass the planning
	// service elided as provable no-ops (dirty-skip). Observability only:
	// a skipped invocation leaves every planner-visible byte identical to
	// having run it.
	skipped int
	// faulted marks a pass that panicked or blew its watchdog deadline;
	// the serial section quarantines its network and reads nothing else.
	faulted bool
}

// Run advances the fleet clock by d. It is RunTo with the error
// discarded — the ephemeral-controller API, where no store means no
// journal appends, no checkpoints, and nothing that can fail.
func (c *Controller) Run(d sim.Time) { _ = c.RunTo(c.now + d) }

// RunTo advances the fleet clock to t, executing every scheduled pass
// that falls due. Against a store the advance intent is journaled ahead
// of the work, so a crash anywhere inside it replays the whole advance.
// Returns ErrKilled when the store's process fault model fired; re-Open
// the store to recover and continue.
func (c *Controller) RunTo(t sim.Time) error {
	if c.dead {
		return ErrKilled
	}
	if t <= c.now {
		return nil
	}
	if err := c.appendRecord(jrec{Op: opAdvance, To: int64(t)}); err != nil {
		return err
	}
	return c.runTo(t)
}

// runTo executes one advance (live or replayed). Between ticks the
// per-network engines advance lazily (a network's engine only moves when
// it has a pass); at the end all engines are synced to the final clock so
// polls, retries, and reconciliation catch up and a Snapshot reflects one
// instant.
func (c *Controller) runTo(end sim.Time) error {
	for {
		if c.dead {
			return ErrKilled
		}
		t, due := c.sched.popDue(end)
		if due == nil {
			break
		}
		c.now = t
		c.runTick(t, due)
		if err := c.checkpointAt(t); err != nil {
			return err
		}
	}
	c.now = end
	c.syncEngines(end)
	return c.checkpointAt(end)
}

// runTick resolves one deadline instant: group due entries per network
// (deepest level wins, shallower ones coalesce into it), shed the excess
// beyond the pass budget deepest-first, execute survivors on the worker
// pool under supervision, then account and push the next deadlines in
// ascending network-ID order.
func (c *Controller) runTick(t sim.Time, due []passEntry) {
	c.met.duePerTick.Observe(int64(len(due)))

	// Group per network. due is sorted by (id, level), so one linear scan
	// builds jobs in ascending ID order with levels ascending within.
	var jobs []*passJob
	for _, e := range due {
		ns := c.get(e.id)
		if ns.quarantined {
			// Defensive: quarantine drops all pending entries, so nothing
			// should reach here; anything that does is dropped the same way.
			continue
		}
		if len(jobs) > 0 && jobs[len(jobs)-1].ns == ns {
			j := jobs[len(jobs)-1]
			j.levels = append(j.levels, e.level)
			if e.level > j.level {
				j.level = e.level
			}
			j.ns.coalesced++
			c.met.coalesced.Inc()
			continue
		}
		jobs = append(jobs, &passJob{ns: ns, level: e.level, levels: []int{e.level}})
	}

	// Shed: keep the budget's worth of passes, preferring shallow levels
	// and low IDs; everything past the budget is shed — which, by the
	// sort order, sheds i=2 first, then i=1, then i=0.
	run := jobs
	var shed []*passJob
	if b := c.cfg.MaxPassesPerTick; b > 0 && len(jobs) > b {
		order := append([]*passJob(nil), jobs...)
		sort.SliceStable(order, func(i, j int) bool {
			if order[i].level != order[j].level {
				return order[i].level < order[j].level
			}
			return order[i].ns.id < order[j].ns.id
		})
		run, shed = order[:b], order[b:]
	}
	c.met.shedPerTick.Observe(int64(len(shed)))
	for _, j := range shed {
		j.ns.shed[j.level]++
		c.met.passesShed[j.level].Inc()
	}

	// Execute surviving passes on the bounded worker pool, each under
	// panic/watchdog supervision. Each job only touches its own network's
	// state and its own result.
	dispatched := time.Now()
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.cfg.Workers)
	for _, j := range run {
		wg.Add(1)
		sem <- struct{}{}
		go func(j *passJob) {
			defer func() { <-sem; wg.Done() }()
			c.met.schedLagUS.Observe(time.Since(dispatched).Microseconds())
			passStart := time.Now()
			j.res = c.executePassSupervised(t, j)
			c.met.passUS.Observe(time.Since(passStart).Microseconds())
		}(j)
	}
	wg.Wait()

	// Serial section: account, re-arm — in the jobs' (ascending-ID)
	// order for run+shed alike, so every counter and deadline is
	// independent of worker interleaving. A shed job only re-arms; a
	// faulted pass quarantines its network and contributes nothing.
	for _, j := range jobs {
		if res := j.res; res != nil {
			if res.faulted {
				c.quarantine(j.ns)
				continue
			}
			j.ns.passes[j.level]++
			c.met.passesRun[j.level].Inc()
			c.met.skippedI0.Add(int64(res.skipped))
		}
		for _, level := range j.levels {
			period := c.cadence[level]
			if period <= 0 {
				continue
			}
			c.sched.push(passEntry{at: t + period, id: j.ns.id, level: level})
		}
	}
}

// executePass advances one network's control plane to the tick instant
// (running its polls, push retries, radar events, and reconciliation in
// its private engine) and runs the planning pass for the job's level.
func (c *Controller) executePass(t sim.Time, j *passJob) *passResult {
	ns := j.ns
	ns.ensureBuilt()
	svc := ns.be.Service
	ns.engine.RunUntil(t)
	skipBefore := svc.SkippedTotal
	svc.RunOnce(levelHops[j.level])
	return &passResult{skipped: svc.SkippedTotal - skipBefore}
}

// syncEngines advances every network's engine to the fleet clock on the
// worker pool (each engine is private to its network). Quarantined
// networks are frozen where their fault stopped them.
func (c *Controller) syncEngines(t sim.Time) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, c.cfg.Workers)
	for _, ns := range c.nets() {
		if ns.quarantined {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(ns *netState) {
			defer func() { <-sem; wg.Done() }()
			ns.ensureBuilt()
			ns.engine.RunUntil(t)
		}(ns)
	}
	wg.Wait()
}

// nets returns every registered network sorted by ID — the canonical
// iteration order for snapshots.
func (c *Controller) nets() []*netState {
	c.mu.RLock()
	out := make([]*netState, 0, len(c.reg))
	for _, ns := range c.reg {
		out = append(out, ns)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

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
//     pressure" policy as the backend's MaxStaleFraction degradation.
//
//   - A bounded worker pool that executes one tick's surviving passes
//     concurrently. Networks are mutually independent, so parallel
//     execution cannot perturb results: a fleet snapshot is byte-identical
//     for any -workers setting.
//
// A pass brings back only what the tick's serial section reads (objective
// values and churn counts); the controller keeps no telemetry store of its
// own. Snapshot reads the networks' current state directly.
package fleetd

import (
	"errors"
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
	"repro/internal/spectrum"
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
	// Fast, Mid, Deep are the default cadences for the three pass levels
	// (defaults 15 min, 3 h, 24 h; the §4.4.4 schedule). Negative
	// disables a level fleet-wide.
	Fast, Mid, Deep sim.Time
	// MaxPassesPerTick is the overload budget: when more passes share a
	// deadline tick than this, the excess is shed, deepest level first.
	// 0 means unlimited.
	MaxPassesPerTick int
	// AdaptiveCadence enables the churn-driven cadence controller (see
	// adaptive.go): networks whose NetP has stopped moving stretch their
	// schedule by doubling steps up to 8x the base cadence, and any sign
	// of volatility (a planner improvement, a radar detection, or NetP
	// churn above the EWMA threshold) snaps them back to 1x and pulls their pending deadlines
	// forward. Off by default; snapshots remain byte-identical across
	// worker settings either way, but an adaptive fleet's snapshot
	// differs from a fixed-cadence fleet's (fewer passes run), so the flag
	// is folded into the config digest.
	AdaptiveCadence bool
	// Backend is the per-network control-plane template. Seed is
	// overridden per network; a non-nil Faults profile is cloned with a
	// per-network seed; Obs is overridden with the controller's registry
	// (per-network private registries would dominate resident memory at
	// fleet scale); DirtySkip is always on (on a steady-state fleet most
	// i=0 passes are provable no-op replays, so skipping them is exact);
	// per-network telemetry history is disabled (nothing in the fleet
	// reads it). Zero value means backend defaults with AlgTurboCA.
	Backend backend.Options
	// Obs receives the controller's own "fleetd" scope (default
	// obs.Default()).
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
	// LagBudget is the wall-clock budget per scheduler tick: a tick's
	// serial+parallel work exceeding it drops the fleet to degraded (i=0
	// only) cadence until ticks run at half the budget again. 0 disables
	// lag degradation.
	LagBudget time.Duration
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
		c.Fast = 15 * sim.Minute
	}
	if c.Mid == 0 {
		c.Mid = 3 * sim.Hour
	}
	if c.Deep == 0 {
		c.Deep = 24 * sim.Hour
	}
	if c.Backend.Algorithm == backend.AlgNone {
		// An all-zero template means "production defaults" (TurboCA, DFS
		// admitted, paper cadences), not "no algorithm".
		c.Backend = backend.DefaultOptions(backend.AlgTurboCA)
	}
	if c.Backend.Planner.MetricFloor == 0 {
		c.Backend.Planner = turboca.DefaultConfig()
	}
	if c.Obs == nil {
		c.Obs = obs.Default()
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
// bytes. Two slots hold constants — a 24 h telemetry window and a 0
// dirty-skip-off flag, settings the controller no longer has — so the
// digest, and with it which journals Open accepts, stays what it was.
func (c Config) digest() uint64 {
	h := fnv.New64a()
	wr := func(vs ...int64) {
		for _, v := range vs {
			h.Write([]byte(strconv.FormatInt(v, 10)))
			h.Write([]byte{0})
		}
	}
	wr(c.Seed, int64(c.Fast), int64(c.Mid), int64(c.Deep),
		int64(c.MaxPassesPerTick), int64(24*sim.Hour), int64(c.CheckpointEvery), 0)
	if c.AdaptiveCadence {
		wr(1)
	} else {
		wr(0)
	}
	if c.StormRF {
		wr(1, int64(math.Float64bits(c.StormsPerDay)), int64(c.StormHorizon))
	} else {
		wr(0)
	}
	return h.Sum64()
}

// NetOptions customizes one network's registration.
type NetOptions struct {
	// Fast, Mid, Deep override the controller's cadences for this
	// network: 0 inherits, negative disables the level.
	Fast, Mid, Deep sim.Time
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
	cadence [numLevels]sim.Time // 0 = disabled
	apCount int
	build   func() // non-nil until first ensureBuilt
	sc      *topo.Scenario
	engine  *sim.Engine
	be      *backend.Backend

	passes    [numLevels]int
	shed      [numLevels]int
	coalesced int

	// Adaptive-cadence accounting (Config.AdaptiveCadence; adaptive.go).
	// All written in the serial tick section only; mult starts at 1 and
	// stays there when the controller is off, so the reschedule arithmetic
	// is shared between modes.
	mult     int     // cadence multiplier, power of two in [1, adaptMaxMult]
	ewma     float64 // EWMA of relative NetP movement per executed pass
	calm     int     // consecutive quiet observations since the last reset
	lastNP5  float64 // previous pass's 5 GHz objective
	lastNP24 float64 // previous pass's 2.4 GHz objective
	havePass bool    // lastNP* hold a real observation

	// quarantined marks a network whose pass faulted (panic or watchdog
	// cancellation): it is dropped from the scheduler, skipped by engine
	// syncs, and its backend-derived state is excluded from checkpoints.
	quarantined bool
}

// ensureBuilt materializes the network's control plane. Callers must hold
// exclusive use of the netState (the per-tick single-worker rule); the
// build closure is dropped after running so the captured fleet.Network
// can be collected.
func (ns *netState) ensureBuilt() {
	if ns.build != nil {
		f := ns.build
		ns.build = nil
		f()
	}
}

// Controller drives a fleet of networks off one cadence scheduler.
// Run, Add*, Remove, and Snapshot must be called from one goroutine (the
// control loop); the worker pool is internal.
type Controller struct {
	cfg Config
	// reg is the network registry, under mu. Every lookup on the tick
	// path is serial and a pass touches only its own netState.
	mu    sync.RWMutex
	reg   map[int]*netState
	sched scheduler
	now   sim.Time
	met   *metrics

	// Durability (nil store = ephemeral controller, PR 1-6 behavior).
	// storms is the fleet-correlated radar schedule (Config.StormRF),
	// derived from cfg.Seed alone and shared read-only by every network's
	// RF environment — correlation is the point.
	storms []rfenv.Storm

	store        Store
	seq          int          // last journal sequence number written or replayed
	replay       *replayState // non-nil while Open replays; nil once live
	proc         *faults.ProcInjector
	dead         bool // the store reported ErrKilled; every run refuses
	storedCkpt   []byte
	storedCkptAt sim.Time
	nextCkptAt   sim.Time
	deg          degradedState
	lagDegraded  bool
	wallNow      func() time.Time // injectable for lag tests
}

// New builds an empty controller; register networks with Add or AddFleet.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	c := &Controller{cfg: cfg, reg: map[int]*netState{}, met: metricsOn(cfg.Obs)}
	c.proc = faults.NewProc(cfg.Proc)
	c.wallNow = time.Now
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

// Len returns the number of registered (non-removed) networks.
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
// network. A journal-append failure leaves nothing registered.
func (c *Controller) AddFleet(f *fleet.Fleet) error {
	if c.store != nil {
		if f.Opt.Networks > 0 {
			opt := f.Opt
			if err := c.appendRecord(jrec{Op: opAddFleet, Fleet: &opt}); err != nil {
				return err
			}
		} else {
			for _, n := range f.Networks {
				if err := c.appendRecord(jrec{Op: opAdd, Net: n, Opt: &NetOptions{}}); err != nil {
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
		c.register(c.buildNet(n, NetOptions{}))
	}
}

// Add registers one network with optional per-network cadence overrides,
// journaling the intent (network inlined) when a store is attached.
func (c *Controller) Add(n *fleet.Network, opt NetOptions) error {
	if err := c.appendRecord(jrec{Op: opAdd, Net: n, Opt: &opt}); err != nil {
		return err
	}
	c.add(n, opt)
	return nil
}

func (c *Controller) add(n *fleet.Network, opt NetOptions) {
	c.register(c.buildNet(n, opt))
}

// buildNet prepares a network's registration shell and its deferred
// control-plane constructor: scenario, engine, backend, chaos clone —
// everything derived from netSeed, so the build runs identically whenever
// it fires.
func (c *Controller) buildNet(n *fleet.Network, opt NetOptions) *netState {
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
		mult:    1,
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
		ns.be.StartManaged()
	}
	ns.cadence[levelFast] = resolveCadence(opt.Fast, c.cfg.Fast)
	ns.cadence[levelMid] = resolveCadence(opt.Mid, c.cfg.Mid)
	ns.cadence[levelDeep] = resolveCadence(opt.Deep, c.cfg.Deep)
	return ns
}

func resolveCadence(override, def sim.Time) sim.Time {
	v := def
	if override != 0 {
		v = override
	}
	if v < 0 {
		return 0 // disabled
	}
	return v
}

// register inserts the network and seeds its deadlines at now+cadence.
func (c *Controller) register(ns *netState) {
	c.mu.Lock()
	c.reg[ns.id] = ns
	c.mu.Unlock()
	c.met.networks.Add(1)
	for level, period := range ns.cadence {
		if period > 0 {
			c.sched.push(passEntry{at: c.now + period, id: ns.id, level: level})
		}
	}
}

// Remove deregisters a network. It never fires again: its pending heap
// entries are dropped immediately, and any entry that survives (e.g.
// pushed by a concurrent reschedule) is discarded on pop. Returns false
// if the network is unknown (the journal still records the intent:
// removing an unknown ID replays as the same no-op).
func (c *Controller) Remove(id int) bool {
	if err := c.appendRecord(jrec{Op: opRemove, ID: id}); err != nil {
		return false
	}
	return c.remove(id)
}

func (c *Controller) remove(id int) bool {
	c.mu.Lock()
	_, ok := c.reg[id]
	delete(c.reg, id)
	c.mu.Unlock()
	if !ok {
		return false
	}
	c.met.networks.Add(-1)
	c.met.removedDropped.Add(int64(c.sched.dropNetwork(id)))
	return true
}

// SetCadence re-parameterizes one registered network's cadences between
// ticks: 0 inherits the controller default, negative disables the level.
// Each affected level's pending heap entry is moved in place — replaced,
// never duplicated — so a cadence change cannot make a level fire twice;
// a newly enabled level arms at now+period, a disabled one is dropped.
// The intent is journaled ahead of the mutation, like Add/Remove. Returns
// false for an unknown or quarantined network (the journal still records
// the intent; replay repeats the same no-op).
func (c *Controller) SetCadence(id int, opt NetOptions) bool {
	if err := c.appendRecord(jrec{Op: opCadence, ID: id, Opt: &opt}); err != nil {
		return false
	}
	return c.setCadence(id, opt)
}

func (c *Controller) setCadence(id int, opt NetOptions) bool {
	ns := c.get(id)
	if ns == nil || ns.quarantined {
		return false
	}
	for level, override := range [numLevels]sim.Time{opt.Fast, opt.Mid, opt.Deep} {
		old := ns.cadence[level]
		period := resolveCadence(override, [numLevels]sim.Time{c.cfg.Fast, c.cfg.Mid, c.cfg.Deep}[level])
		ns.cadence[level] = period
		switch {
		case period <= 0:
			if old > 0 {
				c.sched.dropLevel(id, level)
			}
		default:
			at := c.now + period*ns.cadenceMult()
			if !c.sched.reschedule(id, level, at) {
				c.sched.push(passEntry{at: at, id: id, level: level})
			}
		}
	}
	return true
}

// passJob is one network's work at a tick: the deepest due level plus
// every shallower level it subsumes.
type passJob struct {
	ns     *netState
	level  int   // deepest due level; its hop schedule runs
	levels []int // all due levels (deepest included), for rescheduling
	// demoted marks a deep job executed at i=0 under degraded mode; its
	// deep intent is re-queued at the degraded deferral, never dropped.
	demoted bool
	// res is what the job's worker brought back; nil when the job was shed.
	res *passResult
}

// passResult is what a worker brings back to the tick's serial section.
type passResult struct {
	logNetP5  float64
	logNetP24 float64
	// improved counts band-invocations within this pass whose planner
	// accepted a strictly better plan — the adaptive controller's
	// volatility signal.
	improved int
	// radar counts radar detections (single events or storm sweeps) the
	// network absorbed since its previous pass. Storm-driven vacates are
	// churn by definition, so the adaptive controller treats any nonzero
	// value as volatility even before NetP movement shows up.
	radar int
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
		if err := c.runTick(t, due); err != nil {
			return err
		}
		if err := c.checkpointAt(t); err != nil {
			return err
		}
	}
	c.now = end
	c.syncEngines(end)
	return c.checkpointAt(end)
}

// runTick resolves one deadline instant: group due entries per network
// (deepest level wins, shallower ones coalesce into it), demote deep
// work under degradation, shed the excess beyond the pass budget
// deepest-first, execute survivors on the worker pool under supervision,
// then account, adapt and reschedule in ascending network-ID order.
func (c *Controller) runTick(t sim.Time, due []passEntry) error {
	tickStart := c.wallNow()
	c.met.duePerTick.Observe(int64(len(due)))

	// Group per network. due is sorted by (id, level), so one linear scan
	// builds jobs in ascending ID order with levels ascending within.
	var jobs []*passJob
	for _, e := range due {
		ns := c.get(e.id)
		if ns == nil {
			// Removed after this entry was pushed: drop, never reschedule.
			c.met.removedDropped.Inc()
			continue
		}
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

	// Degraded demotion. Deep (i>0) jobs due while the fleet is degraded
	// execute at i=0 and their deep intent re-queues at the degraded
	// deferral. The decision is journaled write-ahead (one demote record
	// per affected tick): checkpoint-failure degradation replays from
	// ckptfail records, but wall-clock lag degradation does not — the
	// record is what makes both replay exactly.
	hasDeep := false
	for _, j := range jobs {
		if j.level > levelFast {
			hasDeep = true
			break
		}
	}
	demote := false
	if hasDeep {
		if c.replaying() {
			r, _ := c.replayHead()
			switch {
			case r.Op == opDemote && sim.Time(r.To) == t:
				c.replayPop()
				demote = true
			case r.Op == opDemote && sim.Time(r.To) < t:
				return errReplayDiverged("demote record for clock %v unconsumed at %v", sim.Time(r.To), t)
			case c.deg.active:
				// Checkpoint degradation is replayed deterministically, so a
				// missing demote record means the live run saw different state.
				return errReplayDiverged("degraded tick at %v has no demote record", t)
			}
		} else if c.isDegraded() {
			if err := c.appendRecord(jrec{Op: opDemote, To: int64(t)}); err != nil {
				return err
			}
			demote = true
		}
	}
	if demote {
		for _, j := range jobs {
			if j.level > levelFast {
				j.level = levelFast
				j.demoted = true
			}
		}
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

	// Serial section: account, adapt, reschedule — in the jobs'
	// (ascending-ID) order for run+shed alike, so every counter and
	// controller decision is independent of worker interleaving. A shed
	// job only reschedules; a faulted pass quarantines its network and
	// contributes nothing.
	for _, j := range jobs {
		if res := j.res; res != nil {
			if res.faulted {
				c.quarantine(j.ns)
				continue
			}
			j.ns.passes[j.level]++
			c.met.passesRun[j.level].Inc()
			c.met.skippedI0.Add(int64(res.skipped))
			if c.cfg.AdaptiveCadence {
				// Before this job's reschedule, so its own levels already
				// re-arm at the new multiplier.
				c.adaptObserve(t, j, res)
			}
		}
		for _, level := range j.levels {
			period := j.ns.cadence[level]
			if period <= 0 {
				continue
			}
			at := t + period*j.ns.cadenceMult()
			if j.demoted && level > levelFast {
				// Demoted deep intent re-queues at the degraded deferral
				// instead of its cadence — sooner, so depth recovers quickly
				// once the fleet leaves degraded mode.
				at = t + c.degradedDefer()
				c.met.degradedDemoted.Inc()
			}
			c.sched.push(passEntry{at: at, id: j.ns.id, level: level})
		}
	}

	// Wall-clock lag degradation (live only — replay timing is synthetic).
	// Entering demotes deep work from the NEXT tick on; leaving requires
	// ticks back at half the budget, the hysteresis that keeps a
	// borderline fleet from flapping.
	if !c.replaying() && c.cfg.LagBudget > 0 {
		dur := c.wallNow().Sub(tickStart)
		switch {
		case dur > c.cfg.LagBudget:
			if !c.lagDegraded {
				c.met.lagDegraded.Inc()
			}
			c.lagDegraded = true
		case dur <= c.cfg.LagBudget/2:
			c.lagDegraded = false
		}
	}
	return nil
}

// executePass advances one network's control plane to the tick instant
// (running its polls, push retries, radar events, and reconciliation in
// its private engine) and runs the planning pass for the job's level.
func (c *Controller) executePass(t sim.Time, j *passJob) *passResult {
	ns := j.ns
	ns.ensureBuilt()
	svc := ns.be.Service
	radarBefore := ns.be.RadarEvents()
	ns.engine.RunUntil(t)
	skipBefore, impBefore := svc.SkippedTotal, svc.ImprovedTotal
	svc.RunOnce(levelHops[j.level])
	return &passResult{
		logNetP5:  svc.LastLogNetP[spectrum.Band5],
		logNetP24: svc.LastLogNetP[spectrum.Band2G4],
		improved:  svc.ImprovedTotal - impBefore,
		radar:     ns.be.RadarEvents() - radarBefore,
		skipped:   svc.SkippedTotal - skipBefore,
	}
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

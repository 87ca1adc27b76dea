// Package backend models the Meraki cloud side of Section 2: it polls
// every AP on a fixed cadence, stores the collected statistics in a
// LittleTable-style time-series database, snapshots the network state into
// planner inputs, runs a channel-assignment service (TurboCA or
// ReservedCA), and pushes accepted channel plans back to the APs.
//
// The control plane is hardened against the degraded-network regime the
// real deployment lives in (§2, §4.5): polls may be lost, delayed, or
// malformed and APs may drop offline (internal/faults injects those
// deterministically), so the poller keeps a last-known-good report per
// AP, planner inputs decay or pin stale APs, plan pushes retry with
// bounded backoff, and a reconciliation loop re-pushes any AP that
// diverged from the intended plan.
//
// The per-AP performance numbers the poller records come from an analytic
// RF/contention model (model.go) evaluated against the scenario's ground
// truth — the same role the real deployment's physics plays for the real
// backend.
package backend

import (
	"context"
	"math"
	"math/rand"

	"repro/internal/faults"
	"repro/internal/littletable"
	"repro/internal/obs"
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Algorithm selects the channel-assignment service.
type Algorithm int

const (
	// AlgNone leaves the initial (default) channel plan untouched.
	AlgNone Algorithm = iota
	// AlgReservedCA is the sequential greedy baseline, every 5 hours,
	// fixed 20 MHz width (§4.6.1).
	AlgReservedCA
	// AlgTurboCA is the full §4.4 algorithm on the §4.4.4 schedule.
	AlgTurboCA
)

func (a Algorithm) String() string {
	switch a {
	case AlgReservedCA:
		return "ReservedCA"
	case AlgTurboCA:
		return "TurboCA"
	}
	return "None"
}

// Options configures a backend instance. Zero fields are defaulted by New
// (see withDefaults), so every consumer — Start's tickers, Poll's byte
// accounting, the staleness thresholds — sees the same resolved values.
type Options struct {
	Seed         int64
	Algorithm    Algorithm
	PollInterval sim.Time // statistics collection cadence (default 5 min)
	// ReservedCAInterval is the baseline's re-evaluation period (5 h).
	ReservedCAInterval sim.Time
	// ReservedCAWidth is the baseline's fixed channel width.
	ReservedCAWidth spectrum.Width
	// Planner carries TurboCA tunables.
	Planner turboca.Config
	// AllowDFS admits DFS channels on 5 GHz.
	AllowDFS bool
	// DirtySkip lets the planning service elide fast (i=0) passes whose
	// telemetry digest matches the last provably no-op pass (see
	// turboca.Service.DirtySkip — skipping is exact, never heuristic).
	// Off by default for standalone backends; fleetd always enables it,
	// since steady-state networks make most fast passes no-ops.
	DirtySkip bool
	// RadarEventsPerDay injects DFS radar detections across the network
	// at this mean rate (0 disables; see radar.go).
	RadarEventsPerDay float64

	// RF, when non-nil, attaches a hostile-RF environment: spectrum-trace
	// interference sampled into every 5 GHz planner input, scheduled
	// correlated radar storms, and the non-occupancy quarantine table
	// every channel decision (planner candidates, radar fallbacks, plan
	// pushes) is checked against. Each backend needs its own Env — the
	// quarantine is per-network mutable state (see internal/rfenv).
	RF *rfenv.Env

	// Faults, when non-nil, threads a deterministic fault injector
	// through the backend↔AP control path (see internal/faults).
	Faults *faults.Profile

	// Obs, when non-nil, routes the backend's control-plane metrics and
	// spans to this registry (cmd/turboca passes its serving registry so
	// -metrics covers the backend scope). When nil each Backend gets a
	// private registry, so Control() deltas stay exact across any number
	// of instances. Either way the registry also becomes the planner's
	// unless Planner.Obs is set explicitly.
	Obs *obs.Registry

	// StaleAfter is the last-known-good report age beyond which an AP is
	// planned from decayed data (default 3 poll intervals).
	StaleAfter sim.Time
	// PinAfter is the report age beyond which a stale AP is pinned to
	// its current channel instead of replanned — an AP unheard-from for
	// that long probably cannot receive a push either (default
	// 2×StaleAfter).
	PinAfter sim.Time
	// MaxStaleFraction degrades deep NBO passes (i>0) to i=0 when more
	// than this fraction of a band's APs is stale (default 0.5; >= 1
	// disables).
	MaxStaleFraction float64

	// PushRetryBase is the first retry delay after a failed plan push;
	// attempts back off exponentially with deterministic jitter, capped
	// at PushRetryMax, for at most PushAttempts total attempts per
	// delivery. The reconciliation loop catches anything that outlives
	// the retry budget.
	PushRetryBase sim.Time // default 30 s
	PushRetryMax  sim.Time // default 8 min
	PushAttempts  int      // default 5
	// PushRetryTimeCap bounds the total sim time one delivery's retry
	// chain may span from its first attempt: a retry that would land
	// beyond the cap is abandoned to the reconciler instead of scheduled.
	// Without it a long backoff chain can outlive the pass (and the
	// scheduler tick) that started it. The default (30 min) exceeds the
	// worst-case chain under the default attempt budget, so it only bites
	// when configured tighter. Negative disables.
	PushRetryTimeCap sim.Time
	// ReconcileInterval is the cadence at which intended-vs-actual plan
	// divergence is detected and re-pushed (default 15 min).
	ReconcileInterval sim.Time

	// Retention bounds the telemetry DB to a trailing window so
	// multi-week simulations do not grow tables unboundedly (default
	// 14 days; negative disables).
	Retention sim.Time

	// DisableTelemetryHistory skips the per-AP history tables (usage,
	// utilization, tcp_latency, bitrate_eff, disruption) that back the
	// Report API. Planning is unaffected: the planner consumes the
	// in-memory last-known-good reports, never the history tables, and
	// every rng draw still happens so all downstream streams are
	// byte-identical with history on or off. fleetd sets this — at fleet
	// scale the history rows dominate per-network resident memory, and
	// nothing in the fleet reads them.
	DisableTelemetryHistory bool
}

// DefaultOptions returns the production cadences.
func DefaultOptions(alg Algorithm) Options {
	return Options{
		Seed:      7,
		Algorithm: alg,
		Planner:   turboca.DefaultConfig(),
		AllowDFS:  true,
	}.withDefaults()
}

// withDefaults resolves every zero field to its production value — the
// single place interval and threshold defaults live.
func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 5 * sim.Minute
	}
	if o.ReservedCAInterval <= 0 {
		o.ReservedCAInterval = 5 * sim.Hour
	}
	if o.ReservedCAWidth == 0 {
		o.ReservedCAWidth = spectrum.W20
	}
	if o.StaleAfter <= 0 {
		o.StaleAfter = 3 * o.PollInterval
	}
	if o.PinAfter <= 0 {
		o.PinAfter = 2 * o.StaleAfter
	}
	if o.MaxStaleFraction <= 0 {
		o.MaxStaleFraction = 0.5
	}
	if o.PushRetryBase <= 0 {
		o.PushRetryBase = 30 * sim.Second
	}
	if o.PushRetryMax <= 0 {
		o.PushRetryMax = 8 * sim.Minute
	}
	if o.PushAttempts <= 0 {
		o.PushAttempts = 5
	}
	if o.PushRetryTimeCap == 0 {
		o.PushRetryTimeCap = 30 * sim.Minute
	}
	if o.ReconcileInterval <= 0 {
		o.ReconcileInterval = 15 * sim.Minute
	}
	if o.Retention == 0 {
		o.Retention = 14 * sim.Day
	}
	return o
}

// ControlStats counts control-plane events: what the fault layer did to
// us and what the hardening machinery did about it.
type ControlStats struct {
	PollsAttempted int // one per AP per poll tick
	PollsOffline   int // AP inside an offline window
	PollsDropped   int // lost outright
	PollsDelayed   int // delivered late
	PollsCorrupted int // delivered with mangled metrics
	PollsRejected  int // malformed beyond use; last-known-good kept

	PushesAttempted int // per-AP plan push attempts, retries included
	PushesFailed    int // attempts that did not land
	PushRetries     int // backoff retries scheduled
	Reconciliations int // divergent APs re-pushed by the reconcile loop

	StaleViews  int // planner views built from decayed last-known-good data
	PinnedViews int // planner views pinned to their current channel

	RadarStorms         int // correlated radar-storm sweeps fired
	RadarStrikes        int // APs vacated off a struck channel
	NOPBlockedFallbacks int // planner fallbacks rejected: quarantined at use time
	NOPViolations       int // invariant trips: a transmission inside an active NOP window (must stay 0)
}

// Backend drives one scenario under one algorithm.
type Backend struct {
	Opt      Options
	Scenario *topo.Scenario
	Engine   *sim.Engine
	DB       *littletable.DB
	Model    *Model
	Service  *turboca.Service // non-nil for AlgTurboCA

	rng             *rand.Rand
	faults          *faults.Injector
	rf              *rfenv.Env // Opt.RF; nil when no hostile-RF layer
	switches        int
	radarHit        int
	disruptionTotal float64

	// rows is what the control plane keeps per AP, at the AP's position in
	// Scenario.APs (which is its ID, see topo.Scenario).
	rows []apRow
	// ctl holds the control-plane counters on an obs registry; ctlBase is
	// their value at construction, so Control() reports per-instance
	// deltas (see obs.go).
	obsReg  *obs.Registry
	ctl     *ctlMetrics
	ctlBase ControlStats

	// ctx is the cancellation context the control loops honor. It
	// defaults to context.Background (never cancelled); an external
	// scheduler supervising this backend installs a per-pass context via
	// SetPassContext so a stuck-pass watchdog can abort poll, push, and
	// reconcile work mid-flight (see fleetd's supervision layer). A
	// cancelled backend stops doing work but keeps its intent rows, so
	// nothing is lost if the context is later replaced and work resumes.
	ctx context.Context

	// inputTmpl caches the static part of each band's planner input — ID,
	// width cap, client mix, external interference, neighbor lists — all
	// pure functions of the scenario's fixed geometry and population.
	// PlannerInput copies the template and fills in only the measured
	// fields, turning the per-pass snapshot from O(n²) neighbor geometry
	// plus per-client walks into a memcpy. The width mix is a value; the
	// external-utilization row is the scenario's own (topo.ExternalRow)
	// and, with the neighbor slice, is shared by every snapshot: Sanitize
	// only ever writes an invalid row entry, which none contains
	// (TestBackendInputsNeedNoRepair), never a neighbor slice, and the
	// planner treats views as read-only.
	inputTmpl map[spectrum.Band][]turboca.APView
}

// apRow is one AP's control-plane state. The per-band fields are indexed
// by spectrum.Band: the backend manages 2.4 and 5 GHz.
type apRow struct {
	// report is the poller's last-known-good snapshot (poll.go), valid
	// once reported.
	report   apReport
	reported bool
	// intended[band], valid where has[band], is the channel the AP should
	// be on — the plan of record that push retries and the reconciler
	// drive the network toward (push.go).
	intended [spectrum.Band5 + 1]turboca.Assignment
	has      [spectrum.Band5 + 1]bool
	// retrying[band] marks a delivery with a backoff retry in flight, so
	// the reconciler does not double-push it.
	retrying [spectrum.Band5 + 1]bool
	// fallback is the planner-provided non-DFS fallback of the installed
	// 5 GHz assignment, zero when it has none (radar.go consumes it).
	fallback spectrum.Channel
}

// New wires a backend over a scenario.
func New(opt Options, sc *topo.Scenario, engine *sim.Engine) *Backend {
	opt = opt.withDefaults()
	reg := opt.Obs
	if reg == nil {
		// A private registry per instance keeps Control() deltas exact no
		// matter how many backends a process runs or when their stats are
		// read; pass a shared registry (e.g. obs.Default()) to aggregate
		// across instances for serving.
		reg = obs.NewRegistry()
	}
	if opt.Planner.Obs == nil {
		opt.Planner.Obs = reg.Scope("turboca")
	}
	ctl := ctlMetricsOn(reg)
	b := &Backend{
		Opt:       opt,
		Scenario:  sc,
		Engine:    engine,
		DB:        littletable.NewDB(),
		rng:       sim.NewRNG(opt.Seed),
		faults:    faults.New(opt.Faults),
		rf:        opt.RF,
		rows:      make([]apRow, len(sc.APs)),
		obsReg:    reg,
		ctl:       ctl,
		ctlBase:   ctl.read(),
		inputTmpl: map[spectrum.Band][]turboca.APView{},
		ctx:       context.Background(),
	}
	if opt.Retention > 0 {
		b.DB.SetRetention(opt.Retention)
	}
	b.Model = NewModel(sc, opt.Seed^0x5eed)
	if opt.Algorithm == AlgTurboCA {
		b.Service = turboca.NewService(opt.Planner, b.PlannerInput, b.applyPlan, opt.Seed)
		b.Service.MaxStaleFraction = opt.MaxStaleFraction
		b.Service.DirtySkip = opt.DirtySkip
	}
	return b
}

// Start registers the poll, planning, and reconciliation schedules.
func (b *Backend) Start() {
	b.StartManaged()
	switch b.Opt.Algorithm {
	case AlgTurboCA:
		b.Service.Start(b.Engine)
	case AlgReservedCA:
		b.Engine.Ticker(b.Opt.ReservedCAInterval, func(e *sim.Engine) { b.runReservedCA() })
	}
}

// StartManaged registers the statistics, radar, and reconciliation
// schedules but NOT the planning cadence: the caller owns when planning
// passes run, invoking Service.RunOnce (or runReservedCA via Start)
// explicitly. This is the entry point for an external scheduler —
// internal/fleetd drives thousands of these per process off one
// fleet-wide priority cadence heap.
func (b *Backend) StartManaged() {
	b.Engine.Ticker(b.Opt.PollInterval, func(e *sim.Engine) { b.Poll() })
	b.startRadar()
	if b.Opt.Algorithm != AlgNone {
		b.Engine.Ticker(b.Opt.ReconcileInterval, func(e *sim.Engine) { b.Reconcile() })
	}
}

// Switches reports how many AP channel changes the service has applied.
func (b *Backend) Switches() int { return b.switches }

// RF exposes the hostile-RF environment this backend runs under (nil
// when none was configured).
func (b *Backend) RF() *rfenv.Env { return b.rf }

// SetPassContext installs the cancellation context the control loops
// check. Pass nil (or context.Background()) to clear supervision. The
// engine events already queued keep firing; a cancelled context makes
// their bodies return early, so a wedged pass drains instead of running
// away.
func (b *Backend) SetPassContext(ctx context.Context) {
	if ctx == nil {
		ctx = context.Background()
	}
	b.ctx = ctx
}

// cancelled reports whether the supervising context has been cancelled,
// counting each observation.
func (b *Backend) cancelled() bool {
	if b.ctx.Err() == nil {
		return false
	}
	b.ctl.ctxAborts.Inc()
	return true
}

// Control returns a snapshot of the control-plane counters accumulated by
// this Backend instance (the registry totals minus the construction-time
// baseline).
func (b *Backend) Control() ControlStats { return b.ctl.read().sub(b.ctlBase) }

// PlannerInput snapshots the network into a turboca.Input for the band —
// the data a real backend would have: neighbor reports, polled
// utilization and usage, client mixes. Measured values come from the
// poller's last-known-good reports; an AP whose report has aged past
// StaleAfter is planned from decayed data, and one past PinAfter is
// pinned to its current channel. APs that have never reported (e.g. a
// planner invoked before the first poll tick) fall back to a
// provisioning-time model snapshot.
func (b *Backend) PlannerInput(band spectrum.Band) turboca.Input {
	now := b.Engine.Now()
	in := turboca.Input{Band: band, AllowDFS: b.Opt.AllowDFS, MaxWidth: spectrum.W80}
	if band == spectrum.Band2G4 {
		in.MaxWidth = spectrum.W20
	}
	if b.rf != nil && band == spectrum.Band5 {
		// Hostile-RF overlays, sampled at snapshot time: the active NOP
		// mask and the spectrum trace's current occupancy (a fresh row
		// each call — the planner and the digest may outlive this poll
		// window). Both are folded into Input.Digest, so a quarantine
		// starting or expiring dirties an otherwise-skippable fast pass.
		in.Blocked = b.rf.Q.Mask(now)
		if b.rf.Traces != nil {
			in.ChannelNoise = b.rf.Traces.NoiseMap(now)
		}
	}
	perf := b.Model.Evaluate(now)
	in.APs = append([]turboca.APView(nil), b.inputTemplate(band, in.MaxWidth)...)
	for i, ap := range b.Scenario.APs {
		v := &in.APs[i]
		cur := ap.Channel
		if band == spectrum.Band2G4 {
			cur = ap.Channel24
		}
		// Bootstrap values (no report yet): live model snapshot.
		demand := b.Scenario.DemandAt(ap, now)
		util := perf[i].Utilization
		// Clients dissociate off-hours; that is when the deep NBO passes
		// can migrate APs onto DFS channels without stranding anyone
		// through a CAC (§4.5.2).
		hasClients := ap.ClientCount() > 0 && demand > 0.15*ap.BaseDemandMbps
		stale, pinned := false, false
		if row := &b.rows[i]; row.reported {
			rep := &row.report
			age := now - rep.At
			b.ctl.pollAgeUS.Observe(int64(age))
			switch {
			case age <= b.Opt.StaleAfter:
				demand, util, hasClients = rep.Demand, rep.Utilization, rep.HasClients
			case age >= b.Opt.PinAfter:
				// Too old to trust at all: plan around the AP where it
				// is. It likely cannot receive a push anyway.
				pinned, stale = true, true
				b.ctl.pinnedViews.Inc()
				demand, util, hasClients = rep.Demand, rep.Utilization, true
			default:
				// Stale: decay the last-known-good load toward zero so a
				// silent AP gradually stops claiming airtime weight, but
				// keep its client picture conservative.
				stale = true
				b.ctl.staleViews.Inc()
				decay := math.Exp(-float64(age-b.Opt.StaleAfter) / float64(b.Opt.StaleAfter))
				demand, util = rep.Demand*decay, rep.Utilization*decay
				hasClients = rep.HasClients
			}
		}
		v.Current = cur
		v.HasClients = hasClients
		v.Load = normalizeLoad(demand)
		v.Utilization = util
		v.Stale = stale
		v.Pinned = pinned
	}
	return in
}

// inputTemplate returns (building on first use) the band's static APView
// skeleton, in Scenario.APs order. Geometry, client populations, and
// interferers never change after scenario generation, so everything here
// is computed exactly once per (backend, band).
func (b *Backend) inputTemplate(band spectrum.Band, maxW spectrum.Width) []turboca.APView {
	if tmpl, ok := b.inputTmpl[band]; ok {
		return tmpl
	}
	// The client width mix and the neighbor graph are band-independent;
	// when the other band's template already exists, take them from it
	// instead of rebuilding them. The planner reads a neighbor slice in
	// place and Sanitize replaces one it must repair, so sharing them is
	// safe — and halves what they cost fleetd, which holds one backend
	// per network resident.
	var donor []turboca.APView
	for _, t := range b.inputTmpl {
		donor = t
	}
	tmpl := make([]turboca.APView, 0, len(b.Scenario.APs))
	for i, ap := range b.Scenario.APs {
		v := turboca.APView{
			ID:           ap.ID,
			MaxWidth:     minWidth(maxW, ap.MaxWidth),
			CSAFraction:  csaFraction(ap),
			ExternalUtil: b.Scenario.ExternalRow(ap, band),
		}
		if donor != nil {
			v.WidthLoad = donor[i].WidthLoad
			v.Neighbors = donor[i].Neighbors
		} else {
			v.WidthLoad = widthLoad(ap)
			if ns := b.Scenario.NeighborsOf(ap); len(ns) > 0 {
				v.Neighbors = make([]int, len(ns))
				for k, n := range ns {
					v.Neighbors[k] = n.AP.ID // its position
				}
			}
		}
		tmpl = append(tmpl, v)
	}
	b.inputTmpl[band] = tmpl
	return tmpl
}

func minWidth(a, bw spectrum.Width) spectrum.Width {
	if a < bw {
		return a
	}
	return bw
}

func csaFraction(ap *topo.AP) float64 {
	if agg := ap.ClientAgg; agg != nil {
		if agg.Count == 0 {
			return 1
		}
		return float64(agg.CSACount) / float64(agg.Count)
	}
	if len(ap.Clients) == 0 {
		return 1
	}
	n := 0
	for _, c := range ap.Clients {
		if c.SupportsCSA {
			n++
		}
	}
	return float64(n) / float64(len(ap.Clients))
}

// normalizeLoad maps Mbps demand to the planner's load weight scale.
func normalizeLoad(mbps float64) float64 {
	l := mbps / 50
	if l > 4 {
		l = 4
	}
	return l
}

// widthLoad computes load(b): usage-weighted share of clients by max
// width, in Width.Slot order.
func widthLoad(ap *topo.AP) [4]float64 {
	var out [4]float64
	if agg := ap.ClientAgg; agg != nil {
		// Sum in the fixed spectrum order, not the aggregate's map order:
		// the float sum must be bitwise-stable across calls so telemetry
		// digests (turboca.Input.Digest) are reproducible.
		total := 0.0
		for _, w := range spectrum.Widths {
			total += agg.WidthLoad[w]
		}
		if total == 0 {
			return [4]float64{1}
		}
		for slot, w := range spectrum.Widths {
			if s := agg.WidthLoad[w]; s > 0 {
				out[slot] = s / total
			}
		}
		return out
	}
	total := 0.0
	for _, c := range ap.Clients {
		total += c.UsageWeight
	}
	if total == 0 {
		return [4]float64{1}
	}
	for _, c := range ap.Clients {
		if slot := c.MaxWidth.Slot(); slot >= 0 {
			out[slot] += c.UsageWeight / total
		}
	}
	return out
}

func (b *Backend) runReservedCA() {
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		in := b.PlannerInput(band)
		(&in).Sanitize()
		w := b.Opt.ReservedCAWidth
		if band == spectrum.Band2G4 {
			w = spectrum.W20
		}
		res := turboca.RunReservedCA(b.Opt.Planner, in, w)
		b.applyPlan(band, res.Plan, res)
	}
}

// Package backend models the Meraki cloud side of Section 2: it polls
// every AP on a fixed cadence, keeps the collected statistics as a per-AP
// time-series history (history.go), snapshots the network state into
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

// The control plane's timing and thresholds. They are constants: the
// paper runs its control plane on fixed periods, and no caller varies them.
const (
	// pollInterval is the statistics collection cadence.
	pollInterval = 5 * sim.Minute
	// ReconcileInterval is the cadence at which intended-vs-actual plan
	// divergence is detected and re-pushed.
	ReconcileInterval = 15 * sim.Minute
	// staleAfter is the last-known-good report age beyond which an AP is
	// planned from decayed data.
	staleAfter = 3 * pollInterval
	// pinAfter is the report age beyond which a stale AP is pinned to its
	// current channel instead of replanned — an AP unheard-from for that
	// long probably cannot receive a push either.
	pinAfter = 2 * staleAfter
	// pushRetryBase is the first retry delay after a failed plan push;
	// attempts back off exponentially, each delay stretched by up to
	// pushRetryJitter of itself, for at most pushAttempts total attempts
	// per delivery. The reconciliation loop catches anything that
	// outlives the retry budget.
	pushRetryBase   = 30 * sim.Second
	pushRetryJitter = 0.5
	pushAttempts    = 5
	// retention bounds the telemetry history to a trailing window so
	// multi-week simulations do not grow it unboundedly.
	retention = 14 * sim.Day
	// reservedCAInterval and reservedCAWidth are the baseline's
	// re-evaluation period and fixed channel width (§4.6.1).
	reservedCAInterval = 5 * sim.Hour
	reservedCAWidth    = spectrum.W20
)

// Options configures a backend instance; New uses every field as given.
type Options struct {
	Seed      int64
	Algorithm Algorithm
	// Planner carries TurboCA tunables.
	Planner turboca.Config
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

	// DisableTelemetryHistory keeps no per-AP telemetry history (usage,
	// utilization, latency and efficiency samples), so Report,
	// UsageBytes, Samples and Served read nothing. Planning is
	// unaffected: the planner consumes the in-memory last-known-good
	// reports, never the history, and every rng draw still happens so all
	// downstream streams are byte-identical with history on or off. fleetd
	// sets this — at fleet scale the history dominates per-network
	// resident memory, and nothing in the fleet reads it.
	DisableTelemetryHistory bool
}

// DefaultOptions returns the production configuration.
func DefaultOptions(alg Algorithm) Options {
	return Options{
		Seed:      7,
		Algorithm: alg,
		Planner:   turboca.DefaultConfig(),
	}
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
	Model    *Model
	Service  *turboca.Service // non-nil for AlgTurboCA

	rng             *rand.Rand
	rngSrc          *sim.SplitMix64 // rng's source, whose State Export writes
	faults          *faults.Injector
	rf              *rfenv.Env // Opt.RF; nil when no hostile-RF layer
	switches        int
	radarHit        int // radar detections injected; a storm sweep counts once
	disruptionTotal float64

	// rows is what the control plane keeps per AP, at the AP's position in
	// Scenario.APs (which is its ID, see topo.Scenario).
	rows []apRow
	// late holds the delayed reports in transit, each at the slot its
	// evLate event names; a free slot has a nil ap (poll.go).
	late []polledSample
	// hist is the telemetry history, nil under DisableTelemetryHistory.
	hist *history
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
	// read from the scenario's static picture. PlannerInput copies the
	// template and fills in only the measured fields, so a snapshot is a
	// memcpy. The width mix is a value; the external-utilization row
	// (topo.ExternalRow) and the neighbor row (topo.NeighborsOf) are the
	// scenario's own, shared by every snapshot: Sanitize only ever writes
	// an invalid row entry, which none contains
	// (TestBackendInputsNeedNoRepair), never a neighbor row, and the
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
	reg := opt.Obs
	if reg == nil {
		// A private registry per instance keeps Control() deltas exact no
		// matter how many backends a process runs or when their stats are
		// read; pass the registry a run reports into (a command's serving
		// registry, an experiments session's, a fleet controller's) to
		// aggregate across instances.
		reg = obs.NewRegistry()
	}
	if opt.Planner.Obs == nil {
		opt.Planner.Obs = reg.Scope("turboca")
	}
	ctl := ctlMetricsOn(reg)
	src := &sim.SplitMix64{State: uint64(opt.Seed)}
	b := &Backend{
		Opt:       opt,
		Scenario:  sc,
		Engine:    engine,
		rng:       rand.New(src),
		rngSrc:    src,
		faults:    faults.New(opt.Faults),
		rf:        opt.RF,
		rows:      make([]apRow, len(sc.APs)),
		obsReg:    reg,
		ctl:       ctl,
		ctlBase:   ctl.read(),
		inputTmpl: map[spectrum.Band][]turboca.APView{},
		ctx:       context.Background(),
	}
	if !opt.DisableTelemetryHistory {
		b.hist = newHistory(sc)
	}
	b.Model = NewModel(sc)
	if opt.Algorithm == AlgTurboCA {
		b.Service = turboca.NewService(opt.Planner, b.PlannerInput, b.applyPlan, opt.Seed)
		b.Service.DirtySkip = opt.DirtySkip
	}
	engine.Handle(b.handlers())
	return b
}

// The backend's typed engine events (sim.Post), by kind. The three tickers
// re-arm themselves after their body, as a sim.Ticker does; the payloads
// are positions: a storm in rf.Storms, an AP with a band and an attempt, a
// slot of the late table.
const (
	evPoll      sim.Kind = iota // every pollInterval: Poll
	evReconcile                 // every ReconcileInterval: Reconcile
	evRadar                     // every radarCheckInterval: radarTick
	evStorm                     // [storm]: radarStorm
	evRetry                     // [ap, band, attempt]: retryPush
	evLate                      // [slot]: deliverLate
)

func (b *Backend) handlers() []sim.Handler {
	return []sim.Handler{
		evPoll: func(sim.Payload) {
			b.Poll()
			b.Engine.Post(pollInterval, evPoll, sim.Payload{})
		},
		evReconcile: func(sim.Payload) {
			b.Reconcile()
			b.Engine.Post(ReconcileInterval, evReconcile, sim.Payload{})
		},
		evRadar: func(sim.Payload) {
			b.radarTick()
			b.Engine.Post(radarCheckInterval, evRadar, sim.Payload{})
		},
		evStorm: func(p sim.Payload) { b.radarStorm(b.rf.Storms[p[0]]) },
		evRetry: b.retryPush,
		evLate:  b.deliverLate,
	}
}

// Start registers the poll, planning, and reconciliation schedules.
func (b *Backend) Start() {
	b.StartManaged()
	switch b.Opt.Algorithm {
	case AlgTurboCA:
		b.Service.Start(b.Engine)
	case AlgReservedCA:
		b.Engine.Ticker(reservedCAInterval, func(e *sim.Engine) { b.runReservedCA() })
	}
}

// StartManaged registers the statistics, radar, and reconciliation
// schedules but NOT the planning cadence: the caller owns when planning
// passes run, invoking Service.RunOnce (or runReservedCA via Start)
// explicitly. This is the entry point for an external scheduler —
// internal/fleetd drives thousands of these per process off one
// fleet-wide priority cadence heap.
func (b *Backend) StartManaged() {
	b.Engine.Post(pollInterval, evPoll, sim.Payload{})
	b.startRadar()
	if b.Opt.Algorithm != AlgNone {
		b.Engine.Post(ReconcileInterval, evReconcile, sim.Payload{})
	}
}

// Switches reports how many AP channel changes the service has applied.
func (b *Backend) Switches() int { return b.switches }

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
// staleAfter is planned from decayed data, and one past pinAfter is
// pinned to its current channel. APs that have never reported (e.g. a
// planner invoked before the first poll tick) fall back to a
// provisioning-time model snapshot. DFS channels are always admitted.
func (b *Backend) PlannerInput(band spectrum.Band) turboca.Input {
	now := b.Engine.Now()
	in := turboca.Input{Band: band, AllowDFS: true, MaxWidth: spectrum.W80}
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
		hasClients := ap.Mix.Count > 0 && demand > 0.15*ap.BaseDemandMbps
		stale, pinned := false, false
		if row := &b.rows[i]; row.reported {
			rep := &row.report
			age := now - rep.At
			b.ctl.pollAgeUS.Observe(int64(age))
			switch {
			case age <= staleAfter:
				demand, util, hasClients = rep.Demand, rep.Utilization, rep.HasClients
			case age >= pinAfter:
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
				decay := math.Exp(-float64(age-staleAfter) / float64(staleAfter))
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
// skeleton, in Scenario.APs order: the scenario's static picture read in
// place. The width mix is the AP's own value, and the neighbor row and
// external-utilization row are the scenario's, aliased by both bands'
// templates and every snapshot copied from them.
func (b *Backend) inputTemplate(band spectrum.Band, maxW spectrum.Width) []turboca.APView {
	if tmpl, ok := b.inputTmpl[band]; ok {
		return tmpl
	}
	tmpl := make([]turboca.APView, 0, len(b.Scenario.APs))
	for _, ap := range b.Scenario.APs {
		tmpl = append(tmpl, turboca.APView{
			ID:           ap.ID,
			MaxWidth:     min(maxW, ap.MaxWidth),
			CSAFraction:  csaFraction(&ap.Mix),
			WidthLoad:    ap.Mix.WidthLoad,
			ExternalUtil: b.Scenario.ExternalRow(ap, band),
			Neighbors:    b.Scenario.NeighborsOf(ap),
		})
	}
	b.inputTmpl[band] = tmpl
	return tmpl
}

// csaFraction is the share of m's clients that honor CSAs; an AP without
// clients strands nobody by switching.
func csaFraction(m *topo.ClientMix) float64 {
	if m.Count == 0 {
		return 1
	}
	return float64(m.CSACount) / float64(m.Count)
}

// normalizeLoad maps Mbps demand to the planner's load weight scale.
func normalizeLoad(mbps float64) float64 {
	l := mbps / 50
	if l > 4 {
		l = 4
	}
	return l
}

func (b *Backend) runReservedCA() {
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		in := b.PlannerInput(band)
		(&in).Sanitize()
		w := reservedCAWidth
		if band == spectrum.Band2G4 {
			w = spectrum.W20
		}
		b.applyPlan(band, turboca.RunReservedCA(b.Opt.Planner, in, w).Plan)
	}
}

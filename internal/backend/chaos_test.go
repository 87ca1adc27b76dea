package backend

import (
	"math"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Chaos suite: the acceptance scenario for the fault-injected control
// plane. A campus-scale network runs TurboCA under 20% poll loss, 10%
// push failure, delayed and corrupted reports, and hour-long AP outages;
// the plan must still converge to (nearly) the fault-free plan quality,
// every failed push must eventually be reconciled, and the whole run
// must be byte-identical per seed.

// campusChaosProfile is the acceptance fault model: DefaultChaos rates
// plus two 1-hour offline windows, each taking out a block of ten APs.
func campusChaosProfile(seed int64) *faults.Profile {
	p := faults.DefaultChaos(seed)
	for id := 10; id < 20; id++ {
		p.Offline = append(p.Offline, faults.Window{APID: id, From: 2 * sim.Hour, To: 3 * sim.Hour})
	}
	for id := 30; id < 40; id++ {
		p.Offline = append(p.Offline, faults.Window{APID: id, From: 4 * sim.Hour, To: 5 * sim.Hour})
	}
	return p
}

// runCampus drives one campus deployment for d sim-hours under the given
// fault profile and returns the backend (scenario channels mutated in
// place).
func runCampus(seed int64, prof *faults.Profile, d sim.Time) *Backend {
	sc := topo.Campus(seed)
	engine := sim.NewEngine(seed)
	opt := DefaultOptions(AlgTurboCA)
	opt.Seed = seed
	opt.Faults = prof
	b := New(opt, sc, engine)
	b.Start()
	engine.RunUntil(d)
	return b
}

// groundTruthNetP scores the scenario's current on-air channels with a
// fault-free planner input — the same footing for faulted and clean
// runs, regardless of what stale telemetry either backend believed.
func groundTruthNetP(b *Backend) float64 {
	clean := New(DefaultOptions(AlgNone), b.Scenario, sim.NewEngine(1))
	in := clean.PlannerInput(spectrum.Band5)
	plan := turboca.Plan{}
	for _, ap := range b.Scenario.APs {
		plan[ap.ID] = turboca.Assignment{Channel: ap.Channel}
	}
	return turboca.NetP(clean.Opt.Planner, in, plan)
}

func TestChaosCampusConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("campus chaos run in -short mode")
	}
	const seed = 42
	const horizon = 6 * sim.Hour

	faulted := runCampus(seed, campusChaosProfile(seed), horizon)
	ctl := faulted.Control()
	if ctl.PollsDropped == 0 || ctl.PollsDelayed == 0 || ctl.PollsCorrupted == 0 {
		t.Fatalf("fault injection inert: %+v", ctl)
	}
	if ctl.PollsOffline == 0 {
		t.Fatalf("offline windows never fired: %+v", ctl)
	}
	if ctl.PushesFailed == 0 || ctl.PushRetries == 0 {
		t.Fatalf("no push failures at 10%% fail rate: %+v", ctl)
	}

	// Drain: stop planning (no moving target), keep polling and
	// reconciling, and require the eventual-consistency invariant —
	// every AP lands on its intended channel.
	faulted.Service.Stop()
	deadline := horizon
	for i := 0; i < 12 && !faulted.Converged(); i++ {
		deadline += faulted.Opt.ReconcileInterval
		faulted.Engine.RunUntil(deadline)
	}
	if !faulted.Converged() {
		t.Fatal("intended plan never reconciled with on-air channels")
	}
	// (Most failed pushes land via their own retry chain well before the
	// 15-minute reconcile tick; TestChaosOfflineWindowReconciled pins the
	// reconciler path deterministically.)

	// Plan quality: the faulted run's final on-air plan must be within
	// 5% of the fault-free twin's, scored on ground truth.
	clean := runCampus(seed, nil, horizon)
	if cc := clean.Control(); cc.PollsDropped != 0 || cc.PushesFailed != 0 || cc.PollsRejected != 0 {
		t.Fatalf("fault-free twin saw faults: %+v", cc)
	}
	faultedP := groundTruthNetP(faulted)
	cleanP := groundTruthNetP(clean)
	if math.IsNaN(faultedP) || math.IsInf(faultedP, 0) {
		t.Fatalf("faulted NetP = %f", faultedP)
	}
	// ln NetP is negative; "within 5%" is relative to the clean score's
	// magnitude.
	if diff := faultedP - cleanP; diff < -0.05*math.Abs(cleanP) {
		t.Fatalf("faulted plan quality %f vs fault-free %f (gap %f, allowed %f)",
			faultedP, cleanP, diff, 0.05*math.Abs(cleanP))
	}
}

func TestChaosDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campus chaos run in -short mode")
	}
	const seed = 7
	run := func() (*Backend, map[int]spectrum.Channel) {
		b := runCampus(seed, campusChaosProfile(seed), 2*sim.Hour)
		chans := map[int]spectrum.Channel{}
		for _, ap := range b.Scenario.APs {
			chans[ap.ID] = ap.Channel
		}
		return b, chans
	}
	b1, ch1 := run()
	b2, ch2 := run()

	if b1.Control() != b2.Control() {
		t.Fatalf("control stats diverge:\n%+v\n%+v", b1.Control(), b2.Control())
	}
	if b1.Switches() != b2.Switches() {
		t.Fatalf("switches diverge: %d vs %d", b1.Switches(), b2.Switches())
	}
	s1, s2 := b1.Service, b2.Service
	if s1.RunsTotal != s2.RunsTotal || s1.SwitchesTotal != s2.SwitchesTotal ||
		s1.ImprovedTotal != s2.ImprovedTotal || s1.DegradedTotal != s2.DegradedTotal ||
		s1.SanitizedTotal != s2.SanitizedTotal {
		t.Fatal("service counters diverge")
	}
	for band, v := range s1.LastLogNetP {
		if s2.LastLogNetP[band] != v {
			t.Fatalf("LastLogNetP[%v] diverges: %v vs %v", band, v, s2.LastLogNetP[band])
		}
	}
	for id, c := range ch1 {
		if ch2[id] != c {
			t.Fatalf("AP %d channel diverges: %v vs %v", id, c, ch2[id])
		}
	}
}

// TestChaosOfflineWindowReconciled pins the retry/reconcile contract on
// a single AP: pushes during its outage fail and exhaust the retry
// budget; the first reconcile pass after the AP returns lands the plan.
func TestChaosOfflineWindowReconciled(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgTurboCA)
	opt.Faults = &faults.Profile{
		Seed:    1,
		Offline: []faults.Window{{APID: sc.APs[0].ID, From: sim.Hour, To: 2 * sim.Hour}},
	}
	b := New(opt, sc, engine)
	engine.RunUntil(90 * sim.Minute) // mid-outage

	ch155, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	plan := turboca.Plan{sc.APs[0].ID: {Channel: ch155}}
	if got := b.applyPlan(spectrum.Band5, plan, turboca.Result{}); got != 0 {
		t.Fatalf("push to offline AP applied %d switches", got)
	}
	// Let the whole backoff chain burn out inside the window
	// (30s+60s+2m+4m ≈ 7.5 min of retries, all offline).
	engine.RunUntil(110 * sim.Minute)
	ctl := b.Control()
	if want := b.Opt.PushAttempts; ctl.PushesAttempted != want {
		t.Fatalf("attempts = %d, want %d", ctl.PushesAttempted, want)
	}
	if ctl.PushRetries != b.Opt.PushAttempts-1 {
		t.Fatalf("retries = %d, want %d", ctl.PushRetries, b.Opt.PushAttempts-1)
	}
	if b.Converged() {
		t.Fatal("converged while the AP was unreachable")
	}

	engine.RunUntil(121 * sim.Minute) // window over
	b.Reconcile()
	if !b.Converged() || sc.APs[0].Channel != ch155 {
		t.Fatalf("reconcile did not land the plan: on %v", sc.APs[0].Channel)
	}
	if b.Control().Reconciliations != 1 {
		t.Fatalf("reconciliations = %d, want 1", b.Control().Reconciliations)
	}
}

// TestChaosStaleDegradesDeepPasses: when the whole network goes silent,
// planner views age into stale and then pinned, and the deep NBO passes
// are skipped rather than bold-moving on dead telemetry.
func TestChaosStaleDegradesDeepPasses(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgTurboCA)
	prof := &faults.Profile{Seed: 1}
	for _, ap := range sc.APs {
		prof.Offline = append(prof.Offline, faults.Window{APID: ap.ID, From: sim.Hour, To: 100 * sim.Hour})
	}
	opt.Faults = prof
	b := New(opt, sc, engine)
	b.Engine.Ticker(b.Opt.PollInterval, func(e *sim.Engine) { b.Poll() })
	engine.RunUntil(2 * sim.Hour) // an hour of silence: age 60m >= PinAfter 30m

	in := b.PlannerInput(spectrum.Band5)
	if f := in.StaleFraction(); f != 1 {
		t.Fatalf("stale fraction %f after an hour of silence, want 1", f)
	}
	pinned := 0
	for _, v := range in.APs {
		if v.Pinned {
			pinned++
		}
	}
	if pinned != len(sc.APs) {
		t.Fatalf("%d/%d APs pinned", pinned, len(sc.APs))
	}

	// One degradation per managed band (5 GHz and 2.4 GHz).
	b.Service.RunOnce([]int{2, 1, 0})
	if b.Service.DegradedTotal != 2 {
		t.Fatalf("DegradedTotal = %d, want 2 (deep pass on all-stale input, both bands)", b.Service.DegradedTotal)
	}
	// Shallow passes are never degraded.
	b.Service.RunOnce([]int{0})
	if b.Service.DegradedTotal != 2 {
		t.Fatal("i=0 invocation counted as degraded")
	}
}

// TestChaosLastKnownGoodDecay walks one AP through the staleness
// ladder: fresh report values, then exponentially decayed load, then
// pinned.
func TestChaosLastKnownGoodDecay(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgNone)
	target := sc.APs[0]
	// The AP goes silent right after its 10:00 poll (business hours, so
	// the last-known-good report carries real load).
	opt.Faults = &faults.Profile{
		Seed:    1,
		Offline: []faults.Window{{APID: target.ID, From: 10*sim.Hour + sim.Minute, To: 100 * sim.Hour}},
	}
	b := New(opt, sc, engine)
	b.Start()

	view := func() turboca.APView {
		in := b.PlannerInput(spectrum.Band5)
		for _, v := range in.APs {
			if v.ID == target.ID {
				return v
			}
		}
		t.Fatal("target AP missing from input")
		return turboca.APView{}
	}

	engine.RunUntil(10 * sim.Hour)
	fresh := view()
	if fresh.Stale || fresh.Pinned {
		t.Fatalf("fresh report marked stale: %+v", fresh)
	}
	if fresh.Load <= 0 {
		t.Fatalf("no load at 10 am: %+v", fresh)
	}
	if row := b.rows[target.ID]; !row.reported || row.report.At != 10*sim.Hour {
		t.Fatalf("last-known-good not at the poll tick: %+v", row)
	}

	// Age 10 min <= StaleAfter (15 min): still served from the report,
	// undecayed.
	engine.RunUntil(10*sim.Hour + 10*sim.Minute)
	if v := view(); v.Stale || v.Pinned || v.Load != fresh.Load {
		t.Fatalf("report aged %v already degraded: %+v", 10*sim.Minute, v)
	}

	// Age 25 min: stale, load decayed but not zeroed.
	engine.RunUntil(10*sim.Hour + 25*sim.Minute)
	staleViews := b.Control().StaleViews
	v := view()
	if !v.Stale || v.Pinned {
		t.Fatalf("aged report not marked stale: %+v", v)
	}
	if v.Load <= 0 || v.Load >= fresh.Load {
		t.Fatalf("stale load %f not decayed from %f", v.Load, fresh.Load)
	}
	if b.Control().StaleViews <= staleViews {
		t.Fatal("StaleViews counter did not advance")
	}

	// Age 40 min >= PinAfter (30 min): pinned to the current channel.
	engine.RunUntil(10*sim.Hour + 40*sim.Minute)
	pinnedViews := b.Control().PinnedViews
	if v := view(); !v.Pinned || !v.Stale {
		t.Fatalf("long-silent AP not pinned: %+v", v)
	}
	if b.Control().PinnedViews <= pinnedViews {
		t.Fatal("PinnedViews counter did not advance")
	}
	// Meanwhile healthy APs stayed fresh.
	in := b.PlannerInput(spectrum.Band5)
	if f := in.StaleFraction(); f >= 0.2 {
		t.Fatalf("stale fraction %f with one silent AP of %d", f, len(sc.APs))
	}
}

// TestChaosDelayedPollsStillLand: with every report delayed in transit,
// telemetry arrives late but completely — last-known-good catches up and
// the DB fills.
func TestChaosDelayedPollsStillLand(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgNone)
	opt.Faults = &faults.Profile{Seed: 3, PollDelay: 1.0, PollDelayMax: 10 * sim.Minute}
	b := New(opt, sc, engine)
	b.Start()
	engine.RunUntil(sim.Hour + 11*sim.Minute) // first hour's reports all delivered

	ctl := b.Control()
	if ctl.PollsDelayed != ctl.PollsAttempted || ctl.PollsDelayed == 0 {
		t.Fatalf("delayed %d of %d polls, want all", ctl.PollsDelayed, ctl.PollsAttempted)
	}
	for _, ap := range sc.APs {
		if !b.rows[ap.ID].reported {
			t.Fatalf("AP %d never delivered a report", ap.ID)
		}
		if rep := b.rows[ap.ID].report; rep.At < sim.Hour {
			t.Fatalf("AP %d last-known-good stuck at %v", ap.ID, rep.At)
		}
		if n := b.DB.Table("usage").Len(ap.Name); n < 12 {
			t.Fatalf("AP %d has %d usage rows after an hour", ap.ID, n)
		}
	}
}

// TestPollIntervalDefaultedWithoutStart is the regression test for the
// served-bytes bug: Poll used to read Opt.PollInterval directly, so a
// backend whose options left it zero (and that never ran Start) recorded
// zero bytes for every sample. Defaults are now resolved once in New.
func TestPollIntervalDefaultedWithoutStart(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	b := New(Options{Seed: 1, Algorithm: AlgNone, Planner: turboca.DefaultConfig()}, sc, engine)
	if b.Opt.PollInterval != 5*sim.Minute {
		t.Fatalf("PollInterval = %v, want 5m", b.Opt.PollInterval)
	}
	engine.RunUntil(13 * sim.Hour) // business hours: traffic flows
	b.Poll()
	row, ok := b.DB.Table("usage").Latest(sc.APs[0].Name)
	if !ok {
		t.Fatal("no usage row")
	}
	if row.Field("bytes") <= 0 {
		t.Fatalf("served bytes = %f with a defaulted poll interval", row.Field("bytes"))
	}
}

package backend

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Hostile-RF survival campaign: a campus-scale network rides out
// correlated DFS radar storms under spectrum-trace interference. The
// contract: zero NOP-invariant trips, deterministic replay per seed, and
// ground-truth plan quality within 10% of a storm-free twin once the
// quarantine expires.

// stormEnv builds one run's private RF environment: seeded occupancy
// traces plus two correlated sweeps — U-NII-2A at 3h, the lower 2C range
// at 4h30 — both expiring well before the 6-hour horizon.
func stormEnv(seed int64) *rfenv.Env {
	traces := rfenv.NewTraceSet(seed^0x7f5e, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions())
	return rfenv.NewEnv(traces, []rfenv.Storm{
		{At: 3 * sim.Hour, LowSub: 52, HighSub: 64},
		{At: 4*sim.Hour + 30*sim.Minute, LowSub: 100, HighSub: 112},
	})
}

// runStormCampus drives one campus under the storm environment. withRF
// false runs the storm-free twin (same traces, no storms) on the same
// seed.
func runStormCampus(seed int64, storms bool, d sim.Time) *Backend {
	sc := topo.Campus(seed)
	engine := sim.NewEngine(seed)
	opt := DefaultOptions(AlgTurboCA)
	opt.Seed = seed
	env := stormEnv(seed)
	if !storms {
		env.Storms = nil
	}
	opt.RF = env
	b := New(opt, sc, engine)
	b.Start()
	engine.RunUntil(d)
	return b
}

// assertNoneBlocked fails if any AP is on the air inside an active NOP
// window at the backend's current instant.
func assertNoneBlocked(t *testing.T, b *Backend, when string) {
	t.Helper()
	now := b.Engine.Now()
	for _, ap := range b.Scenario.APs {
		if b.rf.Q.Blocked(ap.Channel, now) {
			t.Fatalf("%s: AP %d transmitting on quarantined %v", when, ap.ID, ap.Channel)
		}
	}
}

func TestStormCampaignSurvival(t *testing.T) {
	if testing.Short() {
		t.Skip("campus storm campaign in -short mode")
	}
	const seed = 42
	const horizon = 6 * sim.Hour

	sc := topo.Campus(seed)
	engine := sim.NewEngine(seed)
	opt := DefaultOptions(AlgTurboCA)
	opt.Seed = seed
	opt.RF = stormEnv(seed)
	b := New(opt, sc, engine)
	b.Start()

	// Night planning (0-3h) admits DFS channels; the first storm must
	// find real prey or the campaign tests nothing.
	engine.RunUntil(3*sim.Hour - sim.Minute)
	onStruckRange := 0
	for _, ap := range sc.APs {
		for _, s := range ap.Channel.Sub20Numbers() {
			if s >= 52 && s <= 64 {
				onStruckRange++
				break
			}
		}
	}
	if onStruckRange == 0 {
		t.Fatal("no AP on U-NII-2A before the storm; campaign is inert")
	}

	// Ride through storm 1 and sample inside its NOP window.
	engine.RunUntil(3*sim.Hour + sim.Minute)
	if got := b.Control().RadarStorms; got != 1 {
		t.Fatalf("RadarStorms = %d after the first sweep, want 1", got)
	}
	if b.Control().RadarStrikes == 0 {
		t.Fatalf("storm struck %d on-air APs, want > 0", b.Control().RadarStrikes)
	}
	if b.nopMask() == 0 {
		t.Fatal("no active quarantine right after a storm")
	}
	assertNoneBlocked(t, b, "inside storm-1 NOP")

	// Mid-window and through storm 2.
	engine.RunUntil(4*sim.Hour + 31*sim.Minute)
	if got := b.Control().RadarStorms; got != 2 {
		t.Fatalf("RadarStorms = %d after both sweeps, want 2", got)
	}
	assertNoneBlocked(t, b, "inside storm-2 NOP")

	// To the horizon: both NOPs expired (3h30, 5h).
	engine.RunUntil(horizon)
	ctl := b.Control()
	if ctl.NOPViolations != 0 {
		t.Fatalf("NOP invariant tripped %d times", ctl.NOPViolations)
	}
	for _, ap := range sc.APs {
		if !ap.Channel.Width.Valid() {
			t.Fatalf("AP %d lost its channel in the storms", ap.ID)
		}
	}

	// Drain in-flight pushes, then compare ground truth against the
	// storm-free twin: after quarantine expiry the planner must claw back
	// to within 10% of the twin's plan quality.
	b.Service.Stop()
	deadline := horizon
	for i := 0; i < 12 && !b.Converged(); i++ {
		deadline += b.Opt.ReconcileInterval
		b.Engine.RunUntil(deadline)
	}
	if !b.Converged() {
		t.Fatal("storm-era intent never reconciled")
	}
	twin := runStormCampus(seed, false, horizon)
	if tc := twin.Control(); tc.RadarStorms != 0 {
		t.Fatalf("storm-free twin saw %d storms", tc.RadarStorms)
	}
	stormP := groundTruthNetP(b)
	twinP := groundTruthNetP(twin)
	if math.IsNaN(stormP) || math.IsInf(stormP, 0) {
		t.Fatalf("storm NetP = %f", stormP)
	}
	if diff := stormP - twinP; diff < -0.10*math.Abs(twinP) {
		t.Fatalf("post-storm plan quality %f vs storm-free %f (gap %f, allowed %f)",
			stormP, twinP, diff, 0.10*math.Abs(twinP))
	}
}

// TestStormDeterminism: the whole hostile-RF run — traces, storms,
// quarantine, fallbacks — replays byte-identically per seed.
func TestStormDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("campus storm replay in -short mode")
	}
	const seed = 7
	run := func() (*Backend, map[int]spectrum.Channel) {
		b := runStormCampus(seed, true, 4*sim.Hour)
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
	if b1.Switches() != b2.Switches() || b1.RadarEvents() != b2.RadarEvents() {
		t.Fatalf("switches/radar diverge: %d/%d vs %d/%d",
			b1.Switches(), b1.RadarEvents(), b2.Switches(), b2.RadarEvents())
	}
	for band, v := range b1.Service.LastLogNetP {
		if b2.Service.LastLogNetP[band] != v {
			t.Fatalf("LastLogNetP[%v] diverges", band)
		}
	}
	for id, c := range ch1 {
		if ch2[id] != c {
			t.Fatalf("AP %d channel diverges: %v vs %v", id, c, ch2[id])
		}
	}
}

// TestStormStrikeSemantics pins one strike end to end: the on-air AP
// vacates to an unquarantined non-DFS channel, pending intent pointing
// into the range is retargeted, and the NOP frees exactly 30 minutes
// later.
func TestStormStrikeSemantics(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgTurboCA)
	opt.RF = rfenv.NewEnv(nil, nil)
	b := New(opt, sc, engine)
	engine.RunUntil(sim.Hour)

	ch58, _ := spectrum.ChannelAt(spectrum.Band5, 58, spectrum.W80) // subs 52-64
	ch60, _ := spectrum.ChannelAt(spectrum.Band5, 60, spectrum.W20)
	onAir, pending := sc.APs[0], sc.APs[1]
	onAir.Channel = ch58
	intent := func(ap *topo.AP) *turboca.Assignment { return &b.rows[ap.ID].intended[spectrum.Band5] }
	*intent(onAir), *intent(pending) = turboca.Assignment{Channel: ch58}, turboca.Assignment{Channel: ch60}
	b.rows[onAir.ID].has[spectrum.Band5], b.rows[pending.ID].has[spectrum.Band5] = true, true

	b.radarStorm(rfenv.Storm{At: engine.Now(), LowSub: 52, HighSub: 64})
	now := engine.Now()

	if b.rf.Q.Blocked(onAir.Channel, now) {
		t.Fatalf("struck AP still on a quarantined channel: %v", onAir.Channel)
	}
	if onAir.Channel.DFS {
		t.Fatalf("radar fallback %v is DFS", onAir.Channel)
	}
	if got := intent(onAir).Channel; got != onAir.Channel {
		t.Fatalf("intent %v diverges from fallback %v — the reconciler would push the radar channel back", got, onAir.Channel)
	}
	if got := intent(pending).Channel; b.rf.Q.Blocked(got, now) {
		t.Fatalf("pending intent still targets quarantined %v", got)
	}
	if got := b.Control().RadarStrikes; got != 1 {
		t.Fatalf("RadarStrikes = %d, want 1 (only the on-air AP)", got)
	}

	// Sub-channels 52..64 are all blocked; exactly at +30 min they free.
	for _, s := range []int{52, 56, 60, 64} {
		bit := spectrum.Sub20Mask(spectrum.Band5, s)
		if b.rf.Q.Mask(now)&bit == 0 {
			t.Fatalf("sub %d not quarantined after the sweep", s)
		}
		if b.rf.Q.Mask(now+rfenv.NOPDuration)&bit != 0 {
			t.Fatalf("sub %d still blocked at expiry", s)
		}
	}
}

// TestInstallChannelRefusesNOP pins the last-gate invariant: even if
// every upstream filter failed, installChannel refuses a quarantined
// assignment and counts the attempt.
func TestInstallChannelRefusesNOP(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgNone)
	opt.RF = rfenv.NewEnv(nil, nil)
	b := New(opt, sc, engine)

	b.rf.Q.Strike([]int{52, 56, 60, 64}, engine.Now())
	ch58, _ := spectrum.ChannelAt(spectrum.Band5, 58, spectrum.W80)
	before := sc.APs[0].Channel
	b.installChannel(sc.APs[0], spectrum.Band5, turboca.Assignment{Channel: ch58})
	if sc.APs[0].Channel != before {
		t.Fatalf("quarantined channel installed: %v", sc.APs[0].Channel)
	}
	if got := b.Control().NOPViolations; got != 1 {
		t.Fatalf("NOPViolations = %d, want 1 recorded refusal", got)
	}
	// A clean channel still installs.
	ch149, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	b.installChannel(sc.APs[0], spectrum.Band5, turboca.Assignment{Channel: ch149})
	if sc.APs[0].Channel != ch149 {
		t.Fatalf("clean install refused: %v", sc.APs[0].Channel)
	}
}

// TestPlannerInputCarriesRF: the planner input folds the environment in —
// quarantined subs in Blocked, trace occupancy in ChannelNoise — and both
// dirty the input digest so fast passes cannot skip across a storm.
func TestPlannerInputCarriesRF(t *testing.T) {
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	opt := DefaultOptions(AlgNone)
	opt.RF = rfenv.NewEnv(
		rfenv.NewTraceSet(3, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions()), nil)
	b := New(opt, sc, engine)
	b.Start()
	engine.RunUntil(2 * sim.Hour)

	in := b.PlannerInput(spectrum.Band5)
	preDigest := in.Digest()

	b.rf.Q.Strike([]int{100, 104, 108, 112}, engine.Now())
	in2 := b.PlannerInput(spectrum.Band5)
	for _, s := range []int{100, 104, 108, 112} {
		if in2.Blocked&spectrum.Sub20Mask(spectrum.Band5, s) == 0 {
			t.Fatalf("sub %d missing from Input.Blocked", s)
		}
	}
	if in2.Digest() == preDigest {
		t.Fatal("quarantine does not dirty the planner-input digest")
	}

	// Trace noise lands in ChannelNoise and matches the trace set.
	foundNoise := false
	for at := sim.Time(0); at < 12*sim.Hour && !foundNoise; at += 15 * sim.Minute {
		for _, ch := range b.rf.Traces.Channels() {
			if b.rf.Traces.Occupancy(ch, at) > 0 {
				foundNoise = true
				break
			}
		}
	}
	if !foundNoise {
		t.Skip("trace quiet for 12h — implausible but not a backend bug")
	}
	// 2.4 GHz inputs must stay untouched: no quarantine, no noise.
	in24 := b.PlannerInput(spectrum.Band2G4)
	if in24.Blocked != 0 || len(in24.ChannelNoise) != 0 {
		t.Fatal("RF environment leaked into the 2.4 GHz input")
	}
}

// TestStormNOPInvariantProperty: across 100 seeds, small networks under
// randomized storms plus aggressive uncorrelated radar never trip the
// no-transmit-during-NOP invariant.
func TestStormNOPInvariantProperty(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		seed := int64(seed)
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			sc := topo.Generate(topo.ScenarioOptions{
				Seed: seed, Name: "prop", APCount: 12,
				AreaW: 120, AreaH: 90, Grid: true,
				MeanClients: 6, DemandMbps: 40, Interferers: 4,
				Load: topo.OfficeLoad, UplinkMbps: 500,
			})
			engine := sim.NewEngine(seed)
			opt := DefaultOptions(AlgTurboCA)
			opt.Seed = seed
			opt.RadarEventsPerDay = 100 // uncorrelated strikes on top of the storm
			traces := rfenv.NewTraceSet(seed, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions())
			opt.RF = rfenv.NewEnv(traces, rfenv.StormSchedule(seed, 3*sim.Hour, 16))
			b := New(opt, sc, engine)
			b.Start()
			// Sample the invariant between events, not just at the end.
			for at := 30 * sim.Minute; at <= 3*sim.Hour; at += 30 * sim.Minute {
				engine.RunUntil(at)
				now := engine.Now()
				for _, ap := range sc.APs {
					if b.rf.Q.Blocked(ap.Channel, now) {
						t.Fatalf("at %v: AP %d transmitting on quarantined %v", at, ap.ID, ap.Channel)
					}
				}
			}
			if got := b.Control().NOPViolations; got != 0 {
				t.Fatalf("NOP invariant tripped %d times", got)
			}
		})
	}
}

package fleetd

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

// testNetwork synthesizes a small hand-built network (bypassing
// fleet.Generate) so tests control the exact AP count.
func testNetwork(id, aps int) *fleet.Network {
	ch5, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	ch24, _ := spectrum.ChannelAt(spectrum.Band2G4, 1, spectrum.W20)
	n := &fleet.Network{ID: id, AreaM: 60}
	for i := 0; i < aps; i++ {
		n.APs = append(n.APs, &fleet.AP{
			NetworkID: id,
			X:         float64(15 * (i % 4)),
			Y:         float64(15 * (i / 4)),
			Standard:  "ac", Chains: 2, ConfiguredWidth: spectrum.W80,
			Channel5: ch5, Channel24: ch24,
			MaxClients: 5, Util5: 0.3, Util24: 0.4,
		})
	}
	return n
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{Seed: 1})
	if c.cfg.Fast != 15*sim.Minute || c.cfg.Mid != 3*sim.Hour || c.cfg.Deep != 24*sim.Hour {
		t.Fatalf("default cadences = %v/%v/%v", c.cfg.Fast, c.cfg.Mid, c.cfg.Deep)
	}
	if c.cfg.Backend.Planner.MetricFloor == 0 {
		t.Fatal("planner config not defaulted")
	}
}

// The config digest decides which journals Open accepts, so it must not
// move when a setting that never reached state bytes is removed: both
// values were recorded before the telemetry-window and dirty-skip-off
// settings left Config.
func TestConfigDigestStable(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{}, 0x510cc86020c97505},
		{Config{Seed: 7, StormRF: true, MaxPassesPerTick: 40, CheckpointEvery: 2 * sim.Hour}, 0x6308c920312de455},
	} {
		if got := New(tc.cfg).cfg.digest(); got != tc.want {
			t.Errorf("digest of %+v = %#x, want %#x", tc.cfg, got, tc.want)
		}
	}
}

// Snapshot.Util summarizes Model.Evaluate(Now) over every built,
// unquarantined network in network-ID then AP order; a quarantined or
// not-yet-built network contributes nothing. Taking it perturbs no state:
// a twin that snapshots every tick ends on the same checkpoint bytes.
func TestSnapshotUtil(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 31, Networks: 5, MaxAPs: 8})
	mk := func() *Controller {
		c := New(Config{Seed: 31, Workers: 2, Fast: 15 * sim.Minute, Mid: 45 * sim.Minute, Deep: -1, Obs: obs.NewRegistry()})
		c.AddFleet(f)
		return c
	}
	plain, watched := mk(), mk()
	if u := watched.Snapshot().Util; u.N != 0 {
		t.Fatalf("unbuilt fleet summarizes %d APs", u.N)
	}
	for tick := 0; tick < 8; tick++ {
		plain.Run(15 * sim.Minute)
		watched.Run(15 * sim.Minute)
		watched.Snapshot()
	}
	if !bytes.Equal(plain.CheckpointBytes(), watched.CheckpointBytes()) {
		t.Fatal("snapshotting every tick changed the checkpoint bytes")
	}

	c := plain
	q := c.get(f.Networks[1].ID)
	c.quarantine(q)
	if err := c.Add(testNetwork(100, 3), NetOptions{}); err != nil {
		t.Fatal(err)
	}
	if q.be == nil || c.get(100).be != nil {
		t.Fatal("want one built quarantined network and one unbuilt one")
	}
	want := stats.NewSample(0)
	for _, n := range f.Networks { // generated in ascending ID order
		if n.ID == q.id {
			continue
		}
		for _, p := range c.get(n.ID).be.Model.Evaluate(c.Now()) {
			want.Add(p.Utilization)
		}
	}
	snap := c.Snapshot()
	got := snap.Util
	if got.N != snap.TotalAPs-q.apCount-3 {
		t.Fatalf("Util.N = %d, want the APs of built, unquarantined networks", got.N)
	}
	if !reflect.DeepEqual(got, want.Summarize()) {
		t.Fatalf("Util = %+v, want %+v", got, want.Summarize())
	}
}

// The §4.4.4 composition: when a deep and a shallow level fall due at the
// same tick, one pass at the deepest level runs and subsumes the rest.
func TestCoalesceDeepestLevelWins(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Seed: 3, Fast: 10 * sim.Minute, Mid: 10 * sim.Minute, Deep: -1, Obs: reg})
	c.Add(testNetwork(0, 3), NetOptions{})
	c.Run(10 * sim.Minute)

	snap := c.Snapshot()
	st := snap.Networks[0]
	if st.Passes[levelMid] != 1 || st.Passes[levelFast] != 0 {
		t.Fatalf("passes = %v, want one i1 pass only", st.Passes)
	}
	if st.Coalesced != 1 {
		t.Fatalf("coalesced = %d, want 1", st.Coalesced)
	}
	if got := reg.Counter("fleetd.coalesced").Value(); got != 1 {
		t.Fatalf("fleetd.coalesced = %d, want 1", got)
	}
	// Both levels reschedule independently: the next 10-minute tick
	// coalesces again.
	c.Run(10 * sim.Minute)
	if st := c.Snapshot().Networks[0]; st.Passes[levelMid] != 2 || st.Coalesced != 2 {
		t.Fatalf("after second tick: passes=%v coalesced=%d", st.Passes, st.Coalesced)
	}
}

// Overload sheds deep passes first: with three networks due at one tick at
// levels i0, i1, i2 and a budget of 2, the i2 pass is shed; with a budget
// of 1 only the i0 pass survives.
func TestOverloadShedsDeepestFirst(t *testing.T) {
	build := func(budget int, reg *obs.Registry) *Controller {
		c := New(Config{Seed: 5, MaxPassesPerTick: budget, Obs: reg})
		c.Add(testNetwork(0, 2), NetOptions{Fast: 10 * sim.Minute, Mid: -1, Deep: -1})
		c.Add(testNetwork(1, 2), NetOptions{Fast: -1, Mid: 10 * sim.Minute, Deep: -1})
		c.Add(testNetwork(2, 2), NetOptions{Fast: -1, Mid: -1, Deep: 10 * sim.Minute})
		return c
	}

	reg := obs.NewRegistry()
	c := build(2, reg)
	c.Run(10 * sim.Minute)
	snap := c.Snapshot()
	if snap.Passes != [numLevels]int{1, 1, 0} {
		t.Fatalf("budget 2: passes = %v, want [1 1 0]", snap.Passes)
	}
	if snap.Shed != [numLevels]int{0, 0, 1} {
		t.Fatalf("budget 2: shed = %v, want [0 0 1]", snap.Shed)
	}
	for level, want := range map[string]int64{"i0": 0, "i1": 0, "i2": 1} {
		if got := reg.Counter("fleetd.shed_" + level).Value(); got != want {
			t.Fatalf("budget 2: fleetd.shed_%s = %d, want %d", level, got, want)
		}
	}

	reg = obs.NewRegistry()
	c = build(1, reg)
	c.Run(10 * sim.Minute)
	snap = c.Snapshot()
	if snap.Passes != [numLevels]int{1, 0, 0} {
		t.Fatalf("budget 1: passes = %v, want [1 0 0]", snap.Passes)
	}
	if snap.Shed != [numLevels]int{0, 1, 1} {
		t.Fatalf("budget 1: shed = %v, want [0 1 1]", snap.Shed)
	}
	if got := reg.Counter("fleetd.passes_i0").Value(); got != 1 {
		t.Fatalf("budget 1: fleetd.passes_i0 = %d, want 1", got)
	}

	// A shed pass is rescheduled, not dropped: the next tick sheds again
	// under the same pressure, so the counter keeps growing.
	c.Run(10 * sim.Minute)
	if got := c.Snapshot().Shed; got != [numLevels]int{0, 2, 2} {
		t.Fatalf("after second tick: shed = %v, want [0 2 2]", got)
	}
}

// A removed network never fires again — not from entries dropped at
// removal, and not from entries that somehow survive (covered by pushing
// one behind the scheduler's back).
func TestRemovedNetworkNeverFires(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Seed: 7, Fast: 10 * sim.Minute, Mid: -1, Deep: -1, Obs: reg})
	c.Add(testNetwork(0, 2), NetOptions{})
	c.Add(testNetwork(1, 2), NetOptions{})
	c.Run(10 * sim.Minute)

	if !c.Remove(1) {
		t.Fatal("Remove(1) = false")
	}
	if c.Remove(1) {
		t.Fatal("second Remove(1) = true")
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
	// A stale entry for the removed network must be discarded on pop.
	c.sched.push(passEntry{at: c.now + 10*sim.Minute, id: 1, level: levelFast})

	c.Run(30 * sim.Minute)
	snap := c.Snapshot()
	if len(snap.Networks) != 1 || snap.Networks[0].ID != 0 {
		t.Fatalf("snapshot networks = %+v, want only net 0", snap.Networks)
	}
	if got := snap.Networks[0].Passes[levelFast]; got != 4 {
		t.Fatalf("net 0 ran %d fast passes, want 4", got)
	}
	// 1 entry dropped at Remove + 1 stale entry discarded on pop.
	if got := reg.Counter("fleetd.removed_dropped").Value(); got != 2 {
		t.Fatalf("fleetd.removed_dropped = %d, want 2", got)
	}
	if got := reg.Gauge("fleetd.networks").Value(); got != 1 {
		t.Fatalf("fleetd.networks = %d, want 1", got)
	}
}

// The determinism contract: same seed and network set produce a
// byte-identical snapshot for every worker count.
func TestSnapshotInvariantAcrossWorkers(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 42, Networks: 6})
	var base Snapshot
	var baseText string
	for i, workers := range []int{1, 8, 2} {
		c := New(Config{
			Seed:    99,
			Workers: workers,
			Fast:    15 * sim.Minute, Mid: 45 * sim.Minute, Deep: -1,
			Obs: obs.NewRegistry(),
		})
		c.AddFleet(f)
		if c.Len() != 6 {
			t.Fatalf("Len = %d, want 6", c.Len())
		}
		c.Run(45 * sim.Minute)
		snap := c.Snapshot()
		if i == 0 {
			base, baseText = snap, snap.String()
			if snap.Passes[levelFast] == 0 || snap.Passes[levelMid] == 0 {
				t.Fatalf("no passes ran: %v", snap.Passes)
			}
			if snap.Util.N == 0 {
				t.Fatal("snapshot summarizes no AP utilization")
			}
			continue
		}
		if !reflect.DeepEqual(snap, base) {
			t.Fatalf("snapshot with workers=%d diverged:\n%s\nvs base\n%s",
				workers, snap.String(), baseText)
		}
		if snap.String() != baseText {
			t.Fatalf("snapshot text diverged for workers=%d", workers)
		}
	}
}

// buildScenario is a pure function of (network, seed).
func TestBuildScenarioDeterministic(t *testing.T) {
	n := testNetwork(3, 6)
	n.Foreign = append(n.Foreign, &fleet.AP{X: 10, Y: 10, Channel24: n.APs[0].Channel24, Channel5: n.APs[0].Channel5})
	a, b := buildScenario(n, 1234), buildScenario(n, 1234)
	if len(a.APs) != 6 || len(a.Interferers) != 2 {
		t.Fatalf("scenario shape: %d APs, %d interferers", len(a.APs), len(a.Interferers))
	}
	for i := range a.APs {
		if !reflect.DeepEqual(a.APs[i], b.APs[i]) {
			t.Fatalf("AP %d differs across identical builds", i)
		}
	}
	if c := buildScenario(n, 999); reflect.DeepEqual(a.APs[0], c.APs[0]) {
		t.Fatal("different seeds produced identical APs")
	}
}

// Two networks on coprime cadences produce due instants that fall
// strictly inside one Run window (7,11,14,21,22 minutes); Run's popDue
// loop must fire every one of them, not just the first. Regression guard
// for the scheduler-drain audit: a Run that resolved only one deadline
// instant per call would undercount both networks here.
func TestRunFiresDistinctInstantsInOneCall(t *testing.T) {
	c := New(Config{Seed: 13, Mid: -1, Deep: -1})
	c.Add(testNetwork(0, 2), NetOptions{Fast: 7 * sim.Minute})
	c.Add(testNetwork(1, 2), NetOptions{Fast: 11 * sim.Minute})
	c.Run(22 * sim.Minute)
	snap := c.Snapshot()
	if got := snap.Networks[0].Passes[levelFast]; got != 3 {
		t.Fatalf("net 0 ran %d fast passes in one Run(22m), want 3 (t=7,14,21m)", got)
	}
	if got := snap.Networks[1].Passes[levelFast]; got != 2 {
		t.Fatalf("net 1 ran %d fast passes in one Run(22m), want 2 (t=11,22m)", got)
	}
}

// Dirty-skip must actually pay off on a steady-state fleet: once plans
// converge and telemetry digests stop changing (the flat overnight load
// window), well over half of the fast band-invocations are elided — the
// tentpole's scaling claim. The passes themselves still run at the fleetd
// level; only the planner invocation inside is skipped.
func TestDirtySkipRateSteadyState(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Seed: 21, Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: reg})
	c.AddFleet(fleet.Generate(fleet.Options{Seed: 77, Networks: 8}))
	// 5 h stays inside OfficeLoad's flat pre-7am window for every AP even
	// after per-AP phase jitter (≤ 78 min), so demand — and with it every
	// telemetry digest on a converged network — holds still.
	c.Run(5 * sim.Hour)
	snap := c.Snapshot()
	fast := snap.Passes[levelFast]
	if fast == 0 {
		t.Fatal("no fast passes ran")
	}
	invocations := 2 * fast // each pass plans both bands
	skipped := int(c.SkippedFastPasses())
	if skipped*2 <= invocations {
		t.Fatalf("skip rate %d/%d ≤ 50%% on a steady-state fleet", skipped, invocations)
	}
}

// AddFleet must not materialize control planes: registration records only
// the shell (ID, cadences, AP count, build closure), snapshots of the
// unbuilt fleet still report correct AP totals, and the first Run builds
// what it touches.
func TestLazyBuildDefersConstruction(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 5, Networks: 4})
	c := New(Config{Seed: 9, Fast: 15 * sim.Minute, Mid: -1, Deep: -1})
	c.AddFleet(f)
	for _, ns := range c.nets() {
		if ns.be != nil || ns.sc != nil || ns.engine != nil {
			t.Fatal("AddFleet built a network's control plane eagerly")
		}
		if ns.apCount == 0 {
			t.Fatal("registration lost the AP count")
		}
	}
	before := c.Snapshot()
	if before.TotalAPs == 0 {
		t.Fatal("snapshot of an unbuilt fleet lost AP totals")
	}
	for _, st := range before.Networks {
		if !st.Converged {
			t.Fatalf("unbuilt network %d reads as unconverged", st.ID)
		}
	}
	c.Run(15 * sim.Minute)
	for _, ns := range c.nets() {
		if ns.be == nil || ns.build != nil {
			t.Fatalf("net %d still unbuilt after Run", ns.id)
		}
	}
	if after := c.Snapshot(); after.TotalAPs != before.TotalAPs {
		t.Fatalf("AP totals changed across build: %d then %d", before.TotalAPs, after.TotalAPs)
	}
}

// Fleet clock semantics: Run advances Now by exactly d and leaves every
// network's engine synced to it.
func TestRunSyncsClocks(t *testing.T) {
	c := New(Config{Seed: 11, Fast: 10 * sim.Minute, Mid: -1, Deep: -1})
	c.Add(testNetwork(0, 2), NetOptions{})
	c.Add(testNetwork(1, 2), NetOptions{Fast: -1}) // never planned, still polled
	c.Run(25 * sim.Minute)
	if c.Now() != 25*sim.Minute {
		t.Fatalf("Now = %v, want 25m", c.Now())
	}
	for _, ns := range c.nets() {
		if ns.engine.Now() != 25*sim.Minute {
			t.Fatalf("net %d engine at %v, want 25m", ns.id, ns.engine.Now())
		}
	}
}

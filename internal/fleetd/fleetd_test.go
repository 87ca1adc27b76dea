package fleetd

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/turboca"
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
	if c.cfg.Backend.Planner != turboca.DefaultConfig() {
		t.Fatalf("planner config not defaulted: %+v", c.cfg.Backend.Planner)
	}
}

// The config digest decides which journals Open accepts, so it must not
// move when a setting that never reached state bytes is removed: both
// values fold turboca.Format 2 and ckptFormat 5 (earlier values of
// preGridConfig's are in TestOpenRefusesPreGridJournal).
func TestConfigDigestStable(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want uint64
	}{
		{Config{}, 0xd3ed81a56c01358b},
		{preGridConfig, 0xec8dc1e04038cd1b},
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
	if err := c.Add(testNetwork(100, 3)); err != nil {
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

// TestAddRefusesRegisteredID: Add and AddFleet refuse an ID that is
// already registered, or one a fleet holds twice, before anything is
// journaled or registered. A refused call leaves the controller, its
// networks gauge and its journal where a twin that never made it stands.
func TestAddRefusesRegisteredID(t *testing.T) {
	f := testFleet(37, 2)
	mk := func() (*Controller, *MemStore) {
		store := NewMemStore(nil)
		c := mustOpen(t, testConfig(37), store)
		if err := c.AddFleet(f); err != nil {
			t.Fatal(err)
		}
		return c, store
	}
	c, store := mk()
	twin, _ := mk()
	written := bytes.Clone(store.journal.Bytes())
	dup := f.Networks[0].ID
	for _, tc := range []struct {
		name string
		id   int // the ID the error must name
		add  func() error
	}{
		{"Add", dup, func() error { return c.Add(f.Networks[0]) }},
		{"Add hand-built", dup, func() error { return c.Add(testNetwork(dup, 3)) }},
		{"AddFleet again", dup, func() error { return c.AddFleet(f) }},
		{"AddFleet mixed", dup, func() error {
			return c.AddFleet(&fleet.Fleet{Networks: []*fleet.Network{testNetwork(100, 2), f.Networks[0]}})
		}},
		{"AddFleet inside", 100, func() error {
			return c.AddFleet(&fleet.Fleet{Networks: []*fleet.Network{testNetwork(100, 2), testNetwork(100, 2)}})
		}},
	} {
		want := fmt.Sprintf("fleetd: duplicate network ID %d", tc.id)
		if err := tc.add(); err == nil || err.Error() != want {
			t.Fatalf("%s: err = %v, want %q", tc.name, err, want)
		}
	}
	if !bytes.Equal(store.journal.Bytes(), written) {
		t.Fatal("a refused registration was journaled")
	}
	if c.Len() != 2 || c.get(100) != nil || c.met.networks.Value() != 2 {
		t.Fatalf("Len() = %d, networks gauge = %d, network 100 registered = %v; want 2, 2, false",
			c.Len(), c.met.networks.Value(), c.get(100) != nil)
	}
	for _, ctl := range []*Controller{c, twin} {
		if err := ctl.RunTo(sim.Hour); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(c.CheckpointBytes(), twin.CheckpointBytes()) {
		t.Fatal("refused registrations moved the controller's state")
	}
}

// The §4.4.4 composition: when a deep and a shallow level fall due at the
// same tick, one pass at the deepest level runs and subsumes the rest.
func TestCoalesceDeepestLevelWins(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(Config{Seed: 3, Fast: 10 * sim.Minute, Mid: 10 * sim.Minute, Deep: -1, Obs: reg})
	c.Add(testNetwork(0, 3))
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
	// Both levels re-arm independently: the next 10-minute tick
	// coalesces again.
	c.Run(10 * sim.Minute)
	if st := c.Snapshot().Networks[0]; st.Passes[levelMid] != 2 || st.Coalesced != 2 {
		t.Fatalf("after second tick: passes=%v coalesced=%d", st.Passes, st.Coalesced)
	}
}

// Overload sheds deep passes first. Networks registered at 0, 20 and 30
// minutes on 10/20/40-minute cadences fall due at 40 minutes at levels
// i2, i1 and i0 (each deepest level subsuming the shallower ones due with
// it); with a budget of 2 the i2 pass is shed, with a budget of 1 only the
// i0 pass survives. Counts are the change across that one tick.
func TestOverloadShedsDeepestFirst(t *testing.T) {
	sub := func(a, b [numLevels]int) [numLevels]int {
		for i := range a {
			a[i] -= b[i]
		}
		return a
	}
	// tick registers the three networks, runs to just before the shared
	// 40-minute tick, and returns the controller with the snapshot
	// deltas and shed-counter deltas across that tick.
	tick := func(budget int) (*Controller, [numLevels]int, [numLevels]int, [numLevels]int64) {
		reg := obs.NewRegistry()
		c := New(Config{Seed: 5, Fast: 10 * sim.Minute, Mid: 20 * sim.Minute, Deep: 40 * sim.Minute,
			MaxPassesPerTick: budget, Obs: reg})
		c.Add(testNetwork(0, 2))
		c.Run(20 * sim.Minute)
		c.Add(testNetwork(1, 2))
		c.Run(10 * sim.Minute)
		c.Add(testNetwork(2, 2))
		before := c.Snapshot()
		var shedBefore [numLevels]int64
		for level := range shedBefore {
			shedBefore[level] = reg.Counter("fleetd.shed_" + levelName(level)).Value()
		}
		c.Run(10 * sim.Minute)
		after := c.Snapshot()
		var shed [numLevels]int64
		for level := range shed {
			shed[level] = reg.Counter("fleetd.shed_"+levelName(level)).Value() - shedBefore[level]
		}
		return c, sub(after.Passes, before.Passes), sub(after.Shed, before.Shed), shed
	}

	_, passes, shed, counters := tick(2)
	if passes != [numLevels]int{1, 1, 0} {
		t.Fatalf("budget 2: passes = %v, want [1 1 0]", passes)
	}
	if shed != [numLevels]int{0, 0, 1} {
		t.Fatalf("budget 2: shed = %v, want [0 0 1]", shed)
	}
	if counters != [numLevels]int64{0, 0, 1} {
		t.Fatalf("budget 2: fleetd.shed_i0/i1/i2 = %v, want [0 0 1]", counters)
	}

	c, passes, shed, counters := tick(1)
	if passes != [numLevels]int{1, 0, 0} {
		t.Fatalf("budget 1: passes = %v, want [1 0 0]", passes)
	}
	if shed != [numLevels]int{0, 1, 1} || counters != [numLevels]int64{0, 1, 1} {
		t.Fatalf("budget 1: shed = %v, counters %v, want [0 1 1]", shed, counters)
	}
	if got := c.Snapshot().Networks[2].Passes[levelFast]; got != 1 {
		t.Fatalf("budget 1: the i0 network ran %d passes, want 1", got)
	}

	// A shed pass is re-armed, not dropped: each shed level is pending
	// again one period after the tick.
	for _, want := range []struct {
		id, level int
		at        sim.Time
	}{{0, levelDeep, 80 * sim.Minute}, {1, levelMid, 60 * sim.Minute}} {
		if at, ok := c.sched.when(want.id, want.level); !ok || at != want.at {
			t.Fatalf("shed net %d %s pending at %v (%v), want %v", want.id, levelName(want.level), at, ok, want.at)
		}
	}
}

// The determinism contract: same seed and network set produce a
// byte-identical snapshot and byte-identical checkpoint bytes for every
// worker count, both right after the first mid pass and four hours in.
func TestSnapshotInvariantAcrossWorkers(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 42, Networks: 6})
	horizons := []sim.Time{45 * sim.Minute, 4 * sim.Hour}
	var base []Snapshot
	var baseCkpt [][]byte
	for i, workers := range []int{1, 8, 2, 4} {
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
		for h, at := range horizons {
			if err := c.RunTo(at); err != nil {
				t.Fatal(err)
			}
			snap, ckpt := c.Snapshot(), c.CheckpointBytes()
			if i == 0 {
				if snap.Passes[levelFast] == 0 || snap.Passes[levelMid] == 0 {
					t.Fatalf("no passes ran by %v: %v", at, snap.Passes)
				}
				if snap.Util.N == 0 {
					t.Fatal("snapshot summarizes no AP utilization")
				}
				base, baseCkpt = append(base, snap), append(baseCkpt, ckpt)
				continue
			}
			if !reflect.DeepEqual(snap, base[h]) {
				t.Fatalf("snapshot at %v with workers=%d diverged:\n%s\nvs base\n%s",
					at, workers, snap.String(), base[h].String())
			}
			if snap.String() != base[h].String() {
				t.Fatalf("snapshot text at %v diverged for workers=%d", at, workers)
			}
			if !bytes.Equal(ckpt, baseCkpt[h]) {
				t.Fatalf("checkpoint bytes at %v diverged for workers=%d", at, workers)
			}
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

// Two networks registered three minutes apart on a 10-minute cadence
// produce due instants that fall strictly inside one Run window (10, 13,
// 20, 23, 30 minutes); Run's popDue loop must fire every one of them, not
// just the first. Regression guard for the scheduler-drain audit: a Run
// that resolved only one deadline instant per call would undercount both
// networks here.
func TestRunFiresDistinctInstantsInOneCall(t *testing.T) {
	c := New(Config{Seed: 13, Fast: 10 * sim.Minute, Mid: -1, Deep: -1})
	c.Add(testNetwork(0, 2))
	c.Run(3 * sim.Minute)
	c.Add(testNetwork(1, 2))
	c.Run(27 * sim.Minute)
	snap := c.Snapshot()
	if got := snap.Networks[0].Passes[levelFast]; got != 3 {
		t.Fatalf("net 0 ran %d fast passes in one Run(27m), want 3 (t=10,20,30m)", got)
	}
	if got := snap.Networks[1].Passes[levelFast]; got != 2 {
		t.Fatalf("net 1 ran %d fast passes in one Run(27m), want 2 (t=13,23m)", got)
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
// network's engine synced to it, including one whose first deadline lies
// past the run's end (never planned, still polled).
func TestRunSyncsClocks(t *testing.T) {
	c := New(Config{Seed: 11, Fast: 10 * sim.Minute, Mid: -1, Deep: -1})
	c.Add(testNetwork(0, 2))
	c.Run(20 * sim.Minute)
	c.Add(testNetwork(1, 2)) // first deadline at 30m
	c.Run(5 * sim.Minute)
	if c.Now() != 25*sim.Minute {
		t.Fatalf("Now = %v, want 25m", c.Now())
	}
	for _, ns := range c.nets() {
		if ns.engine.Now() != 25*sim.Minute {
			t.Fatalf("net %d engine at %v, want 25m", ns.id, ns.engine.Now())
		}
	}
	if p := c.get(1).passes; p != [numLevels]int{} {
		t.Fatalf("net 1 planned before its first deadline: passes %v", p)
	}
}

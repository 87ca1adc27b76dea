package fleetd

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// testConfig is the small-fleet configuration the recovery tests share.
// Every controller gets a private registry so shared-default counters
// cannot couple a recovered controller to its twin.
func testConfig(seed int64) Config {
	return Config{
		Seed:            seed,
		Workers:         2,
		CheckpointEvery: sim.Hour,
		Obs:             obs.NewRegistry(),
	}
}

func testFleet(seed int64, n int) *fleet.Fleet {
	return fleet.Generate(fleet.Options{Networks: n, Seed: seed, MaxAPs: 4})
}

// mustOpen opens a controller over a fault-free store path.
func mustOpen(t *testing.T, cfg Config, store Store) *Controller {
	t.Helper()
	c, err := Open(cfg, store)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return c
}

// runTwin drives an uncrashed controller through the reference schedule
// and returns it: the ground truth every recovered controller must
// match. cfg.Proc is kept — clock-keyed fault decisions (checkpoint
// failures, pass panics) are part of the deterministic history both
// sides must share; only process kills live in the crashed run's store.
func runTwin(t *testing.T, cfg Config, f *fleet.Fleet, targets []sim.Time) *Controller {
	t.Helper()
	cfg.Obs = obs.NewRegistry()
	twin := mustOpen(t, cfg, NewMemStore(nil))
	if err := twin.AddFleet(f); err != nil {
		t.Fatalf("twin addfleet: %v", err)
	}
	for _, target := range targets {
		if err := twin.RunTo(target); err != nil {
			t.Fatalf("twin runto %v: %v", target, err)
		}
	}
	return twin
}

// driveWithKills pushes a controller through the target schedule against
// a killable store, reviving and re-Opening after every process death —
// the crash-recovery loop the fleetd binary's supervisor would run.
func driveWithKills(t *testing.T, cfg Config, store *MemStore, f *fleet.Fleet, targets []sim.Time) *Controller {
	t.Helper()
	var c *Controller
	idx := 0
	for attempts := 0; ; attempts++ {
		if attempts > 10_000 {
			t.Fatal("recovery loop did not converge")
		}
		if c == nil {
			cc, err := Open(cfg, store)
			if err != nil {
				if !errors.Is(err, ErrKilled) {
					t.Fatalf("open: %v", err)
				}
				store.Revive()
				continue
			}
			c = cc
		}
		if c.Len() == 0 {
			if err := c.AddFleet(f); err != nil {
				if !errors.Is(err, ErrKilled) {
					t.Fatalf("addfleet: %v", err)
				}
				store.Revive()
				c = nil
				continue
			}
		}
		for idx < len(targets) && c.Now() >= targets[idx] {
			idx++ // replay already finished this advance
		}
		if idx == len(targets) {
			return c
		}
		if err := c.RunTo(targets[idx]); err != nil {
			if !errors.Is(err, ErrKilled) {
				t.Fatalf("runto %v: %v", targets[idx], err)
			}
			store.Revive()
			c = nil
			continue
		}
		idx++
	}
}

// requireEquivalent asserts the recovered controller converged to the
// twin exactly: canonical state bytes and the full fleet snapshot.
func requireEquivalent(t *testing.T, label string, got, want *Controller) {
	t.Helper()
	if got.Now() != want.Now() {
		t.Fatalf("%s: clock %v, want %v", label, got.Now(), want.Now())
	}
	if !bytes.Equal(got.CheckpointBytes(), want.CheckpointBytes()) {
		t.Fatalf("%s: checkpoint bytes diverge from uncrashed twin", label)
	}
	gs, ws := got.Snapshot(), want.Snapshot()
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: snapshot diverges from uncrashed twin:\n got: %+v\nwant: %+v", label, gs, ws)
	}
}

func advanceTargets(steps int, step sim.Time) []sim.Time {
	out := make([]sim.Time, steps)
	for i := range out {
		out[i] = sim.Time(i+1) * step
	}
	return out
}

// TestCleanRestartReplay: run, close cleanly, reopen — the replayed
// controller must land exactly where the original stopped, and keep
// running to the same future as an uninterrupted twin.
func TestCleanRestartReplay(t *testing.T) {
	cfg := testConfig(41)
	f := testFleet(41, 30)
	targets := advanceTargets(4, 45*sim.Minute)

	store := NewMemStore(nil)
	orig := mustOpen(t, cfg, store)
	if err := orig.AddFleet(f); err != nil {
		t.Fatal(err)
	}
	for _, target := range targets[:2] {
		if err := orig.RunTo(target); err != nil {
			t.Fatal(err)
		}
	}
	if err := orig.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wantBytes := orig.CheckpointBytes()

	cfg.Obs = obs.NewRegistry()
	re := mustOpen(t, cfg, store)
	if re.Now() != orig.Now() {
		t.Fatalf("reopened clock %v, want %v", re.Now(), orig.Now())
	}
	if !bytes.Equal(re.CheckpointBytes(), wantBytes) {
		t.Fatal("reopened state bytes differ from pre-close state")
	}

	// The reopened controller keeps running identically.
	for _, target := range targets[2:] {
		if err := re.RunTo(target); err != nil {
			t.Fatal(err)
		}
	}
	requireEquivalent(t, "post-restart run", re, runTwin(t, cfg, f, targets))
}

// TestRestartEquivalenceAtEveryWriteBoundary is the PR's property test:
// kill the process immediately after EVERY durable write a clean run
// performs, one run per boundary, and require each recovery to converge
// byte-identically to the uncrashed twin. With MemStore modeling kills at
// durable-write granularity, these boundaries are exactly the crash
// instants that can change recovery's input.
func TestRestartEquivalenceAtEveryWriteBoundary(t *testing.T) {
	cfg := testConfig(97)
	f := testFleet(97, 16)
	targets := advanceTargets(3, 50*sim.Minute)

	// Count the clean run's durable writes.
	clean := NewMemStore(nil)
	driveWithKills(t, cfg, clean, f, targets)
	total := clean.writes
	if total < 6 {
		t.Fatalf("clean run performed only %d durable writes; schedule too small", total)
	}
	twin := runTwin(t, cfg, f, targets)

	boundaries := total
	if testing.Short() && boundaries > 8 {
		boundaries = 8
	}
	for k := 1; k <= boundaries; k++ {
		store := NewMemStore(nil)
		store.killAt = k // die right after the k-th durable write lands
		cfg := cfg
		cfg.Obs = obs.NewRegistry()
		c := driveWithKills(t, cfg, store, f, targets)
		if store.Kills() != 1 {
			t.Fatalf("boundary %d: %d kills fired, want 1", k, store.Kills())
		}
		requireEquivalent(t, "kill after write "+itoa(k), c, twin)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v = v / 10
	}
	return string(b[i:])
}

// TestDegradedModeDeterminism: checkpoint-commit failures push the fleet
// into degraded (i=0-only) cadence with journaled demotions; a crashed
// run replays the same degradation history and still converges to the
// twin, and demoted deep intent eventually executes (never dropped).
func TestDegradedModeDeterminism(t *testing.T) {
	cfg := testConfig(53)
	cfg.Mid = 2 * sim.Hour
	cfg.CheckpointEvery = 30 * sim.Minute
	cfg.Proc = &faults.ProcProfile{Seed: 53, CheckpointFail: 0.5}
	f := testFleet(53, 12)
	targets := advanceTargets(6, sim.Hour)

	twin := runTwin(t, cfg, f, targets)
	tm := twin.met
	if tm.ckptFailures.Value() == 0 {
		t.Fatal("fault profile produced no checkpoint failures; test is vacuous")
	}
	if tm.degradedEnters.Value() == 0 || tm.degradedDemoted.Value() == 0 {
		t.Fatalf("degradation never engaged: enters=%d demoted=%d",
			tm.degradedEnters.Value(), tm.degradedDemoted.Value())
	}
	// Deep intent survives degradation: mid passes still ran.
	if twin.Snapshot().Passes[levelMid] == 0 {
		t.Fatal("no mid-level passes ran; demoted intent was dropped")
	}

	store := NewMemStore(&faults.ProcProfile{Seed: 77, Kills: 4, KillSpan: 8, TornTail: 0.5})
	cfg2 := cfg
	cfg2.Obs = obs.NewRegistry()
	c := driveWithKills(t, cfg2, store, f, targets)
	if store.Kills() == 0 {
		t.Fatal("kill profile never fired; crashed-run coverage is vacuous")
	}
	requireEquivalent(t, "degraded crashed run", c, twin)
}

// TestOpenRejectsConfigMismatch: a journal must not replay under a
// configuration that would rebuild different state.
func TestOpenRejectsConfigMismatch(t *testing.T) {
	cfg := testConfig(5)
	store := NewMemStore(nil)
	c := mustOpen(t, cfg, store)
	if err := c.AddFleet(testFleet(5, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTo(30 * sim.Minute); err != nil {
		t.Fatal(err)
	}

	bad := cfg
	bad.Obs = obs.NewRegistry()
	bad.Seed = 6
	if _, err := Open(bad, store); err == nil {
		t.Fatal("Open accepted a journal written under a different seed")
	}
}

// TestOpenTruncatesTornTail: a torn final record is dropped, truncated
// away, and the next append lands cleanly after the surviving prefix.
func TestOpenTruncatesTornTail(t *testing.T) {
	cfg := testConfig(19)
	store := NewMemStore(nil)
	c := mustOpen(t, cfg, store)
	if err := c.AddFleet(testFleet(19, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTo(20 * sim.Minute); err != nil {
		t.Fatal(err)
	}

	// Tear the tail by hand: append half of a valid next record.
	line, err := encodeRecord(jrec{Seq: c.seq + 1, Op: opAdvance, To: int64(sim.Hour)})
	if err != nil {
		t.Fatal(err)
	}
	store.journal.Write(line[:len(line)/2])

	cfg.Obs = obs.NewRegistry()
	re := mustOpen(t, cfg, store)
	if re.met.tornDropped.Value() != 1 {
		t.Fatalf("tornDropped = %d, want 1", re.met.tornDropped.Value())
	}
	if re.Now() != 20*sim.Minute {
		t.Fatalf("clock after torn recovery = %v, want %v", re.Now(), 20*sim.Minute)
	}
	// The journal is clean again: run further and reopen once more.
	if err := re.RunTo(sim.Hour); err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.NewRegistry()
	re2 := mustOpen(t, cfg, store)
	if re2.Now() != sim.Hour {
		t.Fatalf("clock after second recovery = %v, want %v", re2.Now(), sim.Hour)
	}
	if !bytes.Equal(re2.CheckpointBytes(), re.CheckpointBytes()) {
		t.Fatal("second recovery diverged from the live controller")
	}
}

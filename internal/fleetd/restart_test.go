package fleetd

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/backend"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/sim"
)

// recordingStore is a MemStore that keeps every checkpoint blob it
// committed.
type recordingStore struct {
	*MemStore
	blobs [][]byte
}

func (s *recordingStore) CommitCheckpoint(data []byte) error {
	err := s.MemStore.CommitCheckpoint(data)
	if err == nil {
		s.blobs = append(s.blobs, bytes.Clone(data))
	}
	return err
}

// chaosRestartConfig runs every network under the chaos fault profile and
// correlated radar storms, with a checkpoint grid that falls both on fast
// ticks inside an advance and between them at advance ends.
func chaosRestartConfig() Config {
	cfg := testConfig(83)
	cfg.CheckpointEvery = 20 * sim.Minute
	cfg.Backend = backend.DefaultOptions(backend.AlgTurboCA)
	cfg.Backend.Faults = faults.DefaultChaos(83)
	cfg.StormRF, cfg.StormsPerDay, cfg.StormHorizon = true, 48, sim.Day
	return cfg
}

// inFlight decodes checkpoint blobs and tallies what their live networks
// hold in flight: pending engine events by kind, delayed reports, bands
// with a push retry pending, and delayed reports corrupted to NaN.
func inFlight(tb testing.TB, blobs [][]byte) (kinds map[sim.Kind]int, late, retrying, nan int) {
	tb.Helper()
	kinds = map[sim.Kind]int{}
	for _, data := range blobs {
		st, err := readCkpt(data)
		if err != nil {
			tb.Fatal(err)
		}
		for _, n := range st.Networks {
			if !n.Live {
				continue
			}
			for _, ev := range n.Engine.Queue {
				kinds[ev.Kind]++
			}
			late += len(n.Backend.Late)
			for _, l := range n.Backend.Late {
				if math.IsNaN(l.Demand) || math.IsNaN(l.Util) {
					nan++
				}
			}
			for _, ap := range n.Backend.APs {
				for _, r := range ap.Retrying {
					if r {
						retrying++
					}
				}
			}
		}
	}
	return kinds, late, retrying, nan
}

// TestRestartPointsUnderChaos: with push failures, delayed and lost
// polls and radar storms, the checkpoints a clean run commits hold every
// kind of engine event the backend posts in flight — retries, delayed
// reports and storms among them — and a process killed right after each
// of the run's durable writes, one run per write, restores from its newest
// restart point and converges to the uncrashed twin: the same state bytes,
// the same snapshot and the same journal.
func TestRestartPointsUnderChaos(t *testing.T) {
	cfg := chaosRestartConfig()
	f := testFleet(83, 8)
	targets := advanceTargets(3, 50*sim.Minute)

	rec := &recordingStore{MemStore: NewMemStore(nil)}
	clean := mustOpen(t, cfg, rec)
	if err := clean.AddFleet(f); err != nil {
		t.Fatal(err)
	}
	for _, target := range targets {
		if err := clean.RunTo(target); err != nil {
			t.Fatal(err)
		}
	}
	kinds, late, retrying, _ := inFlight(t, rec.blobs)
	t.Logf("%d checkpoints committed: event kinds %v, %d delayed reports, %d retries in flight", len(rec.blobs), kinds, late, retrying)
	if len(kinds) != 6 || late == 0 || retrying == 0 {
		t.Fatal("want all six event kinds, a delayed report and a retry in flight at some checkpoint")
	}

	twin := runTwin(t, cfg, f, targets)
	requireEquivalent(t, "recorded run", clean, twin)
	for k := 1; k <= rec.writes; k++ {
		store := NewMemStore(nil)
		store.killAt = k
		cfg := cfg
		cfg.Obs = obs.NewRegistry()
		c := driveWithKills(t, cfg, store, f, targets)
		if store.Kills() != 1 {
			t.Fatalf("boundary %d: %d kills fired, want 1", k, store.Kills())
		}
		requireEquivalent(t, "chaos: kill after write "+itoa(k), c, twin)
		requireSameJournal(t, "chaos: kill after write "+itoa(k), c, twin)
	}
}

// TestCleanCloseOpenRunsNoPasses: after a clean Close, Open restores the
// final checkpoint and runs nothing: no planner pass and no engine event
// counts on the recovering registry, and the state is the closed one.
func TestCleanCloseOpenRunsNoPasses(t *testing.T) {
	cfg := testConfig(89)
	store := NewMemStore(nil)
	orig := mustOpen(t, cfg, store)
	if err := orig.AddFleet(testFleet(89, 12)); err != nil {
		t.Fatal(err)
	}
	if err := orig.RunTo(4*sim.Hour + 10*sim.Minute); err != nil {
		t.Fatal(err)
	}
	if err := orig.Close(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	cfg.Obs = reg
	re := mustOpen(t, cfg, store)
	if !bytes.Equal(re.CheckpointBytes(), orig.CheckpointBytes()) {
		t.Fatal("reopened state differs from the closed controller's")
	}
	s := reg.Snapshot()
	for _, name := range []string{"fleetd.passes_i0", "fleetd.passes_i1", "fleetd.passes_i2", "turboca.passes", "backend.polls_attempted"} {
		if n := s.Counters[name]; n != 0 {
			t.Errorf("%s = %d on the recovering registry, want 0", name, n)
		}
	}
	if n := s.Counters["fleetd.recoveries"]; n != 1 {
		t.Errorf("fleetd.recoveries = %d, want 1", n)
	}
}

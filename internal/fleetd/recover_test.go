package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
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

// requireSameJournal asserts a recovered run wrote exactly the records its
// twin wrote: replay re-appends nothing twice and the live continuation
// attempts the twin's checkpoints, no more and no fewer.
func requireSameJournal(t *testing.T, label string, got, want *Controller) {
	t.Helper()
	g, _ := got.store.JournalBytes()
	w, _ := want.store.JournalBytes()
	if !bytes.Equal(g, w) {
		t.Fatalf("%s: journal diverges from uncrashed twin:\n got: %s\nwant: %s", label, g, w)
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
//
// The second input injects checkpoint failures into the twin and every
// killed run alike. Its checkpoint grid falls on advance ends between
// fast ticks, so some attempts fail at an advance's end and leave no
// record; replay must still move the grid past them.
func TestRestartEquivalenceAtEveryWriteBoundary(t *testing.T) {
	f := testFleet(97, 16)
	targets := advanceTargets(3, 50*sim.Minute)
	failing := testConfig(97)
	failing.CheckpointEvery = 50 * sim.Minute
	failing.Proc = &faults.ProcProfile{Seed: 97, CheckpointFail: 0.5}
	endFails := 0
	for _, target := range targets[:2] { // 150 min is also a fast tick
		if faults.NewProc(failing.Proc).FailCheckpoint(target) {
			endFails++
		}
	}
	if endFails == 0 {
		t.Fatal("no checkpoint attempt fails at an advance end; the failing input is vacuous")
	}

	for _, cfg := range []Config{testConfig(97), failing} {
		label := "fault-free"
		if cfg.Proc != nil {
			label = "checkpoint failures"
		}
		// Count the clean run's durable writes.
		clean := NewMemStore(nil)
		driveWithKills(t, cfg, clean, f, targets)
		total := clean.writes
		if total < 6 {
			t.Fatalf("%s: clean run performed only %d durable writes; schedule too small", label, total)
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
				t.Fatalf("%s boundary %d: %d kills fired, want 1", label, k, store.Kills())
			}
			requireEquivalent(t, label+": kill after write "+itoa(k), c, twin)
			requireSameJournal(t, label+": kill after write "+itoa(k), c, twin)
		}
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

// TestFailedCheckpointChangesNothing: with half the periodic commits
// failing, the fleet's snapshot and state bytes equal a fault-free
// fleet's at every advance target, and the journal holds no trace of the
// failures. A crashed run under the same failures still converges to its
// twin.
func TestFailedCheckpointChangesNothing(t *testing.T) {
	cfg := testConfig(53)
	cfg.Mid = 2 * sim.Hour
	cfg.CheckpointEvery = 30 * sim.Minute
	f := testFleet(53, 12)
	targets := advanceTargets(6, sim.Hour)

	clean := mustOpen(t, cfg, NewMemStore(nil))
	cfg.Proc = &faults.ProcProfile{Seed: 53, CheckpointFail: 0.5}
	cfg.Obs = obs.NewRegistry()
	faultyStore := NewMemStore(nil)
	faulty := mustOpen(t, cfg, faultyStore)
	for _, c := range []*Controller{clean, faulty} {
		if err := c.AddFleet(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, target := range targets {
		for _, c := range []*Controller{clean, faulty} {
			if err := c.RunTo(target); err != nil {
				t.Fatalf("runto %v: %v", target, err)
			}
		}
		requireEquivalent(t, "failing checkpoints at "+target.String(), faulty, clean)
	}
	if faulty.met.ckptFailures.Value() == 0 || faulty.met.ckptCommits.Value() == 0 {
		t.Fatalf("failures=%d commits=%d, want both nonzero; test is vacuous",
			faulty.met.ckptFailures.Value(), faulty.met.ckptCommits.Value())
	}
	if faulty.Snapshot().Passes[levelMid] == 0 {
		t.Fatal("no mid-level passes ran")
	}
	raw, _ := faultyStore.JournalBytes()
	recs, _, _, err := decodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		switch r.Op {
		case opConfig, opAddFleet, opAdvance, opCkpt:
		default:
			t.Fatalf("journal record %d is %q; a failed checkpoint must write nothing", r.Seq, r.Op)
		}
	}

	store := NewMemStore(&faults.ProcProfile{Seed: 77, Kills: 4, KillSpan: 8, TornTail: 0.5})
	cfg.Obs = obs.NewRegistry()
	c := driveWithKills(t, cfg, store, f, targets)
	if store.Kills() == 0 {
		t.Fatal("kill profile never fired; crashed-run coverage is vacuous")
	}
	requireEquivalent(t, "crashed run with failing checkpoints", c, faulty)
	requireSameJournal(t, "crashed run with failing checkpoints", c, faulty)
}

// refusingStore is a MemStore whose checkpoint commits fail with a plain
// IO error, never a kill.
type refusingStore struct{ *MemStore }

var errDiskFull = errors.New("disk full")

func (refusingStore) CommitCheckpoint([]byte) error { return errDiskFull }

// TestCheckpointCommitFailureCounted: a refused periodic commit is counted
// and skipped, and a refused forced commit is counted too and returned —
// through Close, so cmd/fleetd exits dirty.
func TestCheckpointCommitFailureCounted(t *testing.T) {
	store := refusingStore{NewMemStore(nil)}
	c := mustOpen(t, testConfig(31), store)
	if err := c.AddFleet(testFleet(31, 4)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTo(2 * sim.Hour); err != nil {
		t.Fatalf("a refused periodic commit stopped the run: %v", err)
	}
	if got := c.met.ckptFailures.Value(); got != 2 {
		t.Fatalf("ckpt_failures = %d after two periodic attempts, want 2", got)
	}
	if err := c.Close(); !errors.Is(err, errDiskFull) {
		t.Fatalf("Close = %v, want the store's error", err)
	}
	if got := c.met.ckptFailures.Value(); got != 3 {
		t.Fatalf("ckpt_failures = %d after the forced commit, want 3", got)
	}
	if got := c.met.ckptCommits.Value(); got != 0 {
		t.Fatalf("ckpt_commits = %d, want 0", got)
	}
	raw, _ := store.JournalBytes()
	recs, _, _, err := decodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if last := recs[len(recs)-1]; last.Op != opAdvance {
		t.Fatalf("journal ends in %q, want the advance: no ckpt and no shutdown record", last.Op)
	}
}

// TestOpenRefusesRetiredRecords: a journal from before degraded mode was
// removed, holding a demote or ckptfail record, from before per-network
// cadences were removed, holding a cadence record, or from before network
// removal was dropped, holding a remove record, is refused with an error
// naming the record and left as it was — never replayed into different
// state, and never truncated as a torn tail.
func TestOpenRefusesRetiredRecords(t *testing.T) {
	cfg := testConfig(23)
	opt := testFleet(23, 4).Opt
	for _, retired := range []jrec{
		{Op: "demote", To: int64(sim.Hour)},
		{Op: "ckptfail", To: int64(sim.Hour)},
		{Op: "cadence", To: int64(sim.Hour)},
		{Op: "remove", ID: 2},
	} {
		store := NewMemStore(nil)
		store.journal.Write(journalBytes(t,
			jrec{Op: opConfig, Digest: cfg.withDefaults().digest()},
			jrec{Op: opAddFleet, Fleet: &opt},
			jrec{Op: opAdvance, To: int64(2 * sim.Hour)},
			retired,
		))
		written := bytes.Clone(store.journal.Bytes())
		cfg.Obs = obs.NewRegistry()
		_, err := Open(cfg, store)
		if err == nil || !strings.Contains(err.Error(), strconv.Quote(retired.Op)) {
			t.Fatalf("Open of a journal with a %s record: err = %v, want it refused by name", retired.Op, err)
		}
		if !bytes.Equal(store.journal.Bytes(), written) {
			t.Fatalf("Open of a journal with a %s record rewrote it", retired.Op)
		}
	}
}

// TestOpenRefusesDuplicateAdd: replaying an add or addfleet record for an
// ID the journal already registered is an Open error naming the record
// and the ID, not a silent overwrite.
func TestOpenRefusesDuplicateAdd(t *testing.T) {
	cfg := testConfig(41)
	f := testFleet(41, 3)
	opt := f.Opt
	for _, tc := range []struct {
		dup jrec
		id  int // the ID the error must name
	}{
		{jrec{Op: opAdd, Net: f.Networks[1]}, f.Networks[1].ID},
		{jrec{Op: opAddFleet, Fleet: &opt}, f.Networks[0].ID},
	} {
		store := NewMemStore(nil)
		store.journal.Write(journalBytes(t,
			jrec{Op: opConfig, Digest: cfg.withDefaults().digest()},
			jrec{Op: opAddFleet, Fleet: &opt},
			jrec{Op: opAdvance, To: int64(sim.Hour)},
			tc.dup,
		))
		cfg.Obs = obs.NewRegistry()
		_, err := Open(cfg, store)
		want := fmt.Sprintf("fleetd: journal %s record 4: fleetd: duplicate network ID %d", tc.dup.Op, tc.id)
		if err == nil || err.Error() != want {
			t.Fatalf("Open of a journal with a duplicate %s record: err = %v, want %q", tc.dup.Op, err, want)
		}
	}
}

// preGridConfig's digest was 0x6308c920312de455 before turboca.Format
// was folded into it, 0x2f2bfc1f5aa64004 before ckptFormat was,
// 0xf4fbdfe1b342deb4 under ckptFormat 2, whose rows carried a since
// deleted cadence multiplier and its controller state,
// 0x8bb253e895b8a295 under ckptFormat 3, whose rows carried per-network
// cadences, 0x8ba821e895aff91a under turboca.Format 1, whose NBO
// rounds drew from the standard library's source and whose input digest
// folded bytes, and 0xec86f5e0403306c9 under ckptFormat 4, whose
// checkpoints were verification anchors with no restart state.
var preGridConfig = Config{Seed: 7, StormRF: true, MaxPassesPerTick: 40, CheckpointEvery: 2 * sim.Hour}

// TestOpenRefusesPreGridJournal: a journal written before contention went
// on the planner's integer grid, or under planner format 1, replays into
// other plans and ln NetP bits, and one written before checkpoints were
// JSON rows, or while their rows carried a cadence multiplier or
// per-network cadences, or while they carried no restart state, digests
// other checkpoint bytes; any of them would
// fail at its first checkpoint. Its config record carries an earlier
// digest, so Open refuses it up front with the config-digest error,
// leaving the journal as it was even when its tail is torn, and accepts
// the same records under the current digest.
func TestOpenRefusesPreGridJournal(t *testing.T) {
	opt := testFleet(29, 3).Opt
	current := preGridConfig.withDefaults().digest()
	for _, digest := range []uint64{0x6308c920312de455, 0x2f2bfc1f5aa64004, 0xf4fbdfe1b342deb4, 0x8bb253e895b8a295, 0x8ba821e895aff91a, 0xec86f5e0403306c9, 0xec838fe0403023a0, current} {
		store := NewMemStore(nil)
		store.journal.Write(journalBytes(t,
			jrec{Op: opConfig, Digest: digest},
			jrec{Op: opAddFleet, Fleet: &opt},
			jrec{Op: opAdvance, To: int64(30 * sim.Minute)},
		))
		store.journal.WriteString(`{"seq":4,"op":"add"`) // torn tail
		written := bytes.Clone(store.journal.Bytes())
		cfg := preGridConfig
		cfg.Obs = obs.NewRegistry()
		_, err := Open(cfg, store)
		refused := fmt.Sprintf("journal config digest %#x does not match", digest)
		if old := digest != current; old != (err != nil) || old && !strings.Contains(err.Error(), refused) {
			t.Fatalf("Open of a journal with digest %#x: err = %v", digest, err)
		}
		if digest != current && !bytes.Equal(store.journal.Bytes(), written) {
			t.Fatalf("Open of a refused journal with digest %#x rewrote it", digest)
		}
	}
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

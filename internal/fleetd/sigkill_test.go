package fleetd

import (
	"bytes"
	"os"
	"os/exec"
	"syscall"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

const (
	sigkillHelperEnv = "FLEETD_SIGKILL_HELPER"
	sigkillDirEnv    = "FLEETD_SIGKILL_DIR"
	sigkillSeed      = int64(2024)
	sigkillNetworks  = 24
)

func sigkillConfig() Config {
	return Config{
		Seed:            sigkillSeed,
		CheckpointEvery: 30 * sim.Minute,
		Obs:             obs.NewRegistry(),
	}
}

// sigkillHelper is the child process: it opens a DirStore and advances a
// small fleet 15 simulated minutes at a time until its parent SIGKILLs
// it mid-flight. Progress is journaled write-ahead, so wherever the kill
// lands the parent can replay to an equivalent state.
func sigkillHelper() {
	store, err := NewDirStore(os.Getenv(sigkillDirEnv))
	if err != nil {
		os.Exit(3)
	}
	c, err := Open(sigkillConfig(), store)
	if err != nil {
		os.Exit(3)
	}
	if c.Len() == 0 {
		if err := c.AddFleet(fleet.Generate(fleet.Options{Networks: sigkillNetworks, Seed: sigkillSeed, MaxAPs: 3})); err != nil {
			os.Exit(3)
		}
	}
	for i := 1; i <= 10_000; i++ {
		if err := c.RunTo(sim.Time(i) * 15 * sim.Minute); err != nil {
			os.Exit(3)
		}
	}
	os.Exit(0)
}

// TestRealSIGKILLRecovery drives the whole durable stack — DirStore,
// fsynced journal appends, atomic checkpoint renames — under an actual
// SIGKILL: re-exec this test binary as a worker, kill it mid-run with no
// chance to clean up, then recover from its directory and require the
// replayed controller to match a fault-free twin run over the same
// journaled schedule.
func TestRealSIGKILLRecovery(t *testing.T) {
	if os.Getenv(sigkillHelperEnv) == "1" {
		sigkillHelper() // never returns
	}

	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run", "TestRealSIGKILLRecovery")
	cmd.Env = append(os.Environ(), sigkillHelperEnv+"=1", sigkillDirEnv+"="+dir)
	if err := cmd.Start(); err != nil {
		t.Fatalf("start helper: %v", err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("kill helper: %v", err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatal("helper exited cleanly before the kill; raise its workload")
	}

	// Recover from the dead process's directory.
	store, err := NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c, err := Open(sigkillConfig(), store)
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if c.Now() == 0 {
		t.Fatal("helper journaled no progress before the kill; nothing recovered")
	}

	// The twin executes exactly the advances the journal promised.
	raw, err := store.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := decodeJournal(raw)
	if err != nil {
		t.Fatalf("post-recovery journal decode: %v", err)
	}
	var targets []sim.Time
	for _, r := range recs {
		if r.Op == opAdvance {
			targets = append(targets, sim.Time(r.To))
		}
	}
	twin := runTwin(t, sigkillConfig(), fleet.Generate(fleet.Options{Networks: sigkillNetworks, Seed: sigkillSeed, MaxAPs: 3}), targets)
	if c.Now() != twin.Now() {
		t.Fatalf("recovered clock %v, twin %v", c.Now(), twin.Now())
	}
	if !bytes.Equal(c.CheckpointBytes(), twin.CheckpointBytes()) {
		t.Fatal("SIGKILL recovery diverged from the fault-free twin")
	}

	// And the recovered controller can close cleanly.
	if err := c.Close(); err != nil {
		t.Fatalf("post-recovery close: %v", err)
	}
}

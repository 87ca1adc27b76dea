package fleetd

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// TestChaosKillCampaign is the PR's acceptance campaign: across many
// seeds, a 600-network fleet is driven while SIGKILL-style process
// deaths land at seeded durable-write instants (half of them tearing the
// journal's final record). After every death the store is revived and
// the controller re-Opened — replaying the journal from the start — and
// at the end of the schedule the survivor must be byte-identical to an
// uncrashed twin: same canonical checkpoint bytes, same full snapshot,
// zero quarantines (kills are process faults, not pass faults — no
// network may be collateral damage).
//
// Full mode runs 50 seeds; -short keeps CI latency sane with 8.
func TestChaosKillCampaign(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	const networks = 600

	targets := advanceTargets(4, 30*sim.Minute)
	for s := 0; s < seeds; s++ {
		seed := int64(1000 + 17*s)
		cfg := Config{
			Seed:            seed,
			CheckpointEvery: 45 * sim.Minute,
			Obs:             obs.NewRegistry(),
		}
		f := fleet.Generate(fleet.Options{Networks: networks, Seed: seed, MaxAPs: 3})

		twin := runTwin(t, cfg, f, targets)

		store := NewMemStore(&faults.ProcProfile{
			Seed:     seed,
			Kills:    5,
			KillSpan: 10,
			TornTail: 0.5,
		})
		c := driveWithKills(t, cfg, store, f, targets)

		if store.Kills() == 0 {
			t.Fatalf("seed %d: no kills fired; campaign coverage is vacuous", seed)
		}
		if c.met.recoveries.Value() == 0 {
			t.Fatalf("seed %d: no journal replays happened", seed)
		}
		requireEquivalent(t, "campaign seed "+itoa(int(seed)), c, twin)
		if snap := c.Snapshot(); snap.QuarantinedNets != 0 {
			t.Fatalf("seed %d: %d networks quarantined by process kills", seed, snap.QuarantinedNets)
		}
	}
}

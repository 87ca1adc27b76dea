package fleetd

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden fleet files")

// TestGoldenFleet pins fleet behaviour across commits: the invariance
// suites compare worker shapes within one run, so a change that
// moves every run the same way passes them all. A 12-network fleet runs 6
// simulated hours under correlated radar storms (scenario build, planner
// input, NBO, quarantine, radar fallback and the checkpoint codec all
// live), and the per-network pass counts, switches and ln NetP bits plus
// the SHA-256 of the checkpoint blob are compared against
// testdata/golden_fleet.txt. Regenerate deliberately with
// `go test -run GoldenFleet -update`.
func TestGoldenFleet(t *testing.T) {
	c := New(Config{
		Seed: 20170811, Workers: 2,
		StormRF: true, StormsPerDay: 12, StormHorizon: sim.Day,
		Obs: obs.NewRegistry(),
	})
	if err := c.AddFleet(fleet.Generate(fleet.Options{Seed: 20170811, Networks: 12, MaxAPs: 48})); err != nil {
		t.Fatal(err)
	}
	c.Run(6 * sim.Hour)
	snap := c.Snapshot()

	var out strings.Builder
	for _, n := range snap.Networks {
		fmt.Fprintf(&out, "net=%d aps=%d passes=%v switches=%d lognetp5=%016x lognetp24=%016x converged=%v\n",
			n.ID, n.APs, n.Passes, n.Switches, math.Float64bits(n.LogNetP5), math.Float64bits(n.LogNetP24), n.Converged)
	}
	fmt.Fprintf(&out, "fleet passes=%v shed=%v switches=%d quarantined=%d lognetp5_mean=%016x lognetp5_p50=%016x\n",
		snap.Passes, snap.Shed, snap.TotalSwitches, snap.QuarantinedNets,
		math.Float64bits(snap.LogNetP5.Mean), math.Float64bits(snap.LogNetP5.P50))
	fmt.Fprintf(&out, "checkpoint_sha256=%x\n", sha256.Sum256(c.CheckpointBytes()))
	got := out.String()

	golden := filepath.Join("testdata", "golden_fleet.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden fleet (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("fleet diverged from the golden (regenerate deliberately with -update).\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

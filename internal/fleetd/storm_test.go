package fleetd

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// Fleet-level hostile RF: the StormRF knob derives one correlated radar
// schedule from the fleet seed, and every network's backend survives it
// with zero NOP-invariant trips.

func TestStormRFFleetCorrelated(t *testing.T) {
	c := New(Config{
		Seed: 5, StormRF: true, StormsPerDay: 24, StormHorizon: sim.Day,
		Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: obs.NewRegistry(),
	})
	for id := 0; id < 3; id++ {
		if err := c.Add(testNetwork(id, 6)); err != nil {
			t.Fatal(err)
		}
	}
	c.Run(12 * sim.Hour)

	storms := -1
	for id := 0; id < 3; id++ {
		ns := c.get(id)
		ctl := ns.be.Control()
		if ctl.NOPViolations != 0 {
			t.Fatalf("network %d: NOP invariant tripped %d times", id, ctl.NOPViolations)
		}
		if ctl.RadarStorms == 0 {
			t.Fatalf("network %d saw no storms in 12h at 24/day", id)
		}
		// Correlation is the point: the schedule comes from the fleet seed,
		// so every network sees the same sweeps.
		if storms == -1 {
			storms = ctl.RadarStorms
		} else if ctl.RadarStorms != storms {
			t.Fatalf("network %d saw %d storms, network 0 saw %d — schedule not fleet-correlated",
				id, ctl.RadarStorms, storms)
		}
	}
}

// TestStormRFSnapshotInvariance: the storm path inherits the determinism
// contract — snapshots and checkpoint bytes are byte-identical across
// worker counts.
func TestStormRFSnapshotInvariance(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 42, Networks: 4})
	var base Snapshot
	var baseCkpt []byte
	for i, workers := range []int{1, 2, 4} {
		c := New(Config{
			Seed:    99,
			Workers: workers,
			StormRF: true, StormsPerDay: 12, StormHorizon: sim.Day,
			Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: obs.NewRegistry(),
		})
		if err := c.AddFleet(f); err != nil {
			t.Fatal(err)
		}
		c.Run(8 * sim.Hour)
		snap := c.Snapshot()
		ckpt := c.CheckpointBytes()
		if i == 0 {
			base, baseCkpt = snap, ckpt
			continue
		}
		if !reflect.DeepEqual(snap, base) {
			t.Fatalf("snapshot diverged for workers=%d:\n%s\nvs\n%s",
				workers, snap.String(), base.String())
		}
		if !bytes.Equal(ckpt, baseCkpt) {
			t.Fatalf("checkpoint bytes diverged for workers=%d", workers)
		}
	}
}

// TestStormRFConfigDigest: the storm knobs are part of the config
// identity, so a checkpoint from a storm-free run can never be replayed
// into a storm run (and vice versa).
func TestStormRFConfigDigest(t *testing.T) {
	mk := func(mut func(*Config)) uint64 {
		cfg := Config{Seed: 1, Fast: 15 * sim.Minute}
		mut(&cfg)
		c := cfg.withDefaults()
		return c.digest()
	}
	off := mk(func(*Config) {})
	on := mk(func(c *Config) { c.StormRF = true })
	if off == on {
		t.Fatal("StormRF does not change the config digest")
	}
	if mk(func(c *Config) { c.StormRF = true; c.StormsPerDay = 6 }) == on {
		t.Fatal("StormsPerDay does not change the config digest")
	}
	if mk(func(c *Config) { c.StormRF = true; c.StormHorizon = 2 * sim.Day }) == on {
		t.Fatal("StormHorizon does not change the config digest")
	}
}

// TestBackendInputsNeedNoRepair is the fleet half of the guard of the same
// name in internal/backend, over what fleetd itself builds: every network
// of a 12-network storm fleet (foreign APs as interferers, aggregated
// clients, per-network traces, the fleet's storm schedule) snapshots inputs
// that need zero repairs on either band at t = 0, 15 min and 3 h, and after
// two more full planning invocations each scenario's external-utilization
// rows hold what they held before its first snapshot.
func TestBackendInputsNeedNoRepair(t *testing.T) {
	c := New(Config{
		Seed: 20170811, StormRF: true, StormsPerDay: 12, StormHorizon: sim.Day,
		Obs: obs.NewRegistry(),
	})
	if err := c.AddFleet(fleet.Generate(fleet.Options{Seed: 20170811, Networks: 12, MaxAPs: 48})); err != nil {
		t.Fatal(err)
	}
	bands := []spectrum.Band{spectrum.Band5, spectrum.Band2G4}
	before := map[int][][]float64{}
	rows := 0
	for _, ns := range c.nets() {
		ns.ensureBuilt()
		for _, ap := range ns.sc.APs {
			for _, band := range bands {
				row := ns.sc.ExternalRow(ap, band)
				before[ns.id] = append(before[ns.id], append([]float64(nil), row...))
				if row != nil {
					rows++
				}
			}
		}
	}
	if len(before) != 12 || rows == 0 {
		t.Fatalf("%d networks with %d external rows between them; the guard needs 12 and some", len(before), rows)
	}
	for _, at := range []sim.Time{0, 15 * sim.Minute, 3 * sim.Hour} {
		if err := c.RunTo(at); err != nil {
			t.Fatal(err)
		}
		for _, ns := range c.nets() {
			for _, band := range bands {
				in := ns.be.PlannerInput(band)
				if n := in.Sanitize(); n != 0 {
					t.Fatalf("network %d %v at %v: a backend-built input needed %d repairs", ns.id, band, at, n)
				}
			}
		}
	}
	for _, ns := range c.nets() {
		ns.be.Service.RunOnce([]int{1, 0})
		ns.be.Service.RunOnce([]int{0})
		if n := ns.be.Service.SanitizedTotal; n != 0 {
			t.Fatalf("network %d: planning sanitized %d entries of backend-built inputs", ns.id, n)
		}
		i := 0
		for _, ap := range ns.sc.APs {
			for _, band := range bands {
				if got := ns.sc.ExternalRow(ap, band); !slices.Equal(got, before[ns.id][i]) {
					t.Fatalf("network %d AP %d %v: external row %v, was %v before the first snapshot", ns.id, ap.ID, band, got, before[ns.id][i])
				}
				i++
			}
		}
	}
}

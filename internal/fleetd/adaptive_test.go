package fleetd

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// A quiet network earns doubling stretches, and an injected NetP step
// change (a fleet-wide demand shock on one network) snaps it back to base
// cadence within one mid (3 h) window: a fully stretched fast level still
// fires within 8×15m = 2h, observes the churn, and escalates.
func TestAdaptiveCadenceEscalation(t *testing.T) {
	c := New(Config{
		Seed: 17, Fast: 15 * sim.Minute, Mid: -1, Deep: -1,
		AdaptiveCadence: true, Obs: obs.NewRegistry(),
	})
	c.Add(testNetwork(0, 4), NetOptions{})

	// Converge: after the first passes the plan settles, dirty-skips prove
	// the quiet, and the multiplier climbs.
	c.Run(6 * sim.Hour)
	ns := c.get(0)
	if ns.mult < 2 {
		t.Fatalf("quiet network never stretched: mult=%d calm=%d ewma=%g", ns.mult, ns.calm, ns.ewma)
	}
	if c.AdaptiveStretched() == 0 {
		t.Fatal("adapt_stretched counter = 0 after a quiet 6h run")
	}
	preFast := ns.passes[levelFast]
	preEscalated := c.AdaptiveEscalated()

	// Inject the step change between Run calls (no passes in flight):
	// every AP's offered load jumps 6x, which moves utilization — and
	// therefore NetP — on the next executed pass.
	for _, ap := range ns.sc.APs {
		ap.BaseDemandMbps *= 6
	}

	c.Run(3 * sim.Hour)
	if c.AdaptiveEscalated() == preEscalated {
		t.Fatalf("no escalation within one mid window of the demand shock: mult=%d ewma=%g passes=%d",
			ns.mult, ns.ewma, ns.passes[levelFast]-preFast)
	}
	// Escalation pulled the network back to base cadence: it re-planned
	// repeatedly inside the window instead of coasting at 8x.
	if got := ns.passes[levelFast] - preFast; got < 2 {
		t.Fatalf("only %d fast passes ran in the 3h after the shock", got)
	}
}

// The adaptive controller's decisions run in the tick's serial section in
// ascending network-ID order, so the determinism contract extends to it:
// snapshots AND canonical checkpoint bytes are byte-identical for every
// worker count.
func TestAdaptiveSnapshotInvariance(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 42, Networks: 6})
	var base Snapshot
	var baseText string
	var baseCkpt []byte
	var baseStretched int64
	for i, workers := range []int{1, 8, 2, 4} {
		c := New(Config{
			Seed:    99,
			Workers: workers,
			Fast:    15 * sim.Minute, Mid: 45 * sim.Minute, Deep: -1,
			AdaptiveCadence: true,
			Obs:             obs.NewRegistry(),
		})
		c.AddFleet(f)
		c.Run(4 * sim.Hour)
		snap := c.Snapshot()
		ckpt := c.CheckpointBytes()
		if i == 0 {
			base, baseText, baseCkpt = snap, snap.String(), ckpt
			baseStretched = c.AdaptiveStretched()
			if baseStretched == 0 {
				t.Fatal("adaptive controller never engaged on the base shape")
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
		if !bytes.Equal(ckpt, baseCkpt) {
			t.Fatalf("checkpoint bytes diverged for workers=%d", workers)
		}
		if got := c.AdaptiveStretched(); got != baseStretched {
			t.Fatalf("stretch decisions diverged for workers=%d: %d vs %d",
				workers, got, baseStretched)
		}
	}
}

package fleetd

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// BenchmarkFleetd1000Networks measures one full i=0 fleet pass: every
// network of a 1000-network synthetic fleet polls and plans over one
// 15-minute cadence window. Deeper cadences are
// disabled so each iteration is exactly one fleet-wide i=0 sweep.
func BenchmarkFleetd1000Networks(b *testing.B) {
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: 1000})
	// A private registry: the pass counter checked below must start at 0
	// each time the framework re-enters with a larger b.N.
	c := New(Config{Seed: 1, Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: obs.NewRegistry()})
	c.AddFleet(f)
	aps := 0
	for _, n := range f.Networks {
		aps += len(n.APs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(15 * sim.Minute)
		if got := int(c.met.passesRun[levelFast].Value()); got != 1000*(i+1) {
			b.Fatalf("iteration %d: %d i=0 passes, want %d", i, got, 1000*(i+1))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(aps), "aps")
}

// benchFleetScale is the fleet-scale benchmark body: register a fleet,
// run one warm-up cadence window (which lazily builds every network and
// converges most plans), measure steady-state resident bytes/network, and
// then time whole fleet-wide i=0 sweeps. Deeper cadences are disabled so
// each iteration is exactly networks i=0 passes.
func benchFleetScale(b *testing.B, networks int) {
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: networks})
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	reg := obs.NewRegistry()
	c := New(Config{Seed: 1, Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: reg})
	c.AddFleet(f)
	c.Run(15 * sim.Minute) // build + first pass: the steady state

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	bytesPerNet := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(networks)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(15 * sim.Minute)
	}
	b.StopTimer()
	var end runtime.MemStats
	runtime.ReadMemStats(&end)

	passes := float64(networks) * float64(b.N)
	passesPerSec := passes / b.Elapsed().Seconds()
	fast := float64(c.met.passesRun[levelFast].Value())
	skipRate := 0.0
	if fast > 0 {
		// Each pass plans both bands; SkippedFastPasses counts skipped
		// band-invocations.
		skipRate = float64(c.SkippedFastPasses()) / (2 * fast)
	}
	allocsPerPass := float64(end.Mallocs-after.Mallocs) / passes
	b.ReportMetric(bytesPerNet, "bytes/net")
	b.ReportMetric(passesPerSec, "passes/sec")
	b.ReportMetric(100*skipRate, "skip%")
	b.ReportMetric(allocsPerPass, "allocs/pass")
	// Supervision health: a nonzero value means the bench itself tripped
	// the panic-recovery or watchdog machinery — a regression to chase.
	if q, p, w := c.met.quarantined.Value(), c.met.passPanics.Value(), c.met.watchdogCancels.Value(); q+p+w != 0 {
		b.Fatalf("fault-free sweep tripped supervision: quarantined=%d panics=%d watchdog=%d", q, p, w)
	}
}

// BenchmarkFleetd10kNetworks is the tentpole's scaling gauge: bytes of
// steady-state resident memory per network and fleet-wide i=0 passes/sec
// at 10k networks.
func BenchmarkFleetd10kNetworks(b *testing.B) {
	benchFleetScale(b, 10_000)
}

// BenchmarkFleetdAdaptiveCadence runs twin 200-network fleets — fixed
// §4.4.4 cadence vs Config.AdaptiveCadence — over ten simulated hours
// and reports the planning passes the adaptive controller saved at equal
// final fleet NetP (the saved% / netpΔ% pair). The timed
// loop then measures steady-state fleet sweeps on the adaptive twin,
// where most networks coast at a stretched cadence.
func BenchmarkFleetdAdaptiveCadence(b *testing.B) {
	const networks = 200
	const horizon = 10 * sim.Hour
	twin := func(adaptive bool) (*Controller, Snapshot) {
		f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: networks})
		c := New(Config{
			Seed: 1, Fast: 15 * sim.Minute, Mid: 3 * sim.Hour, Deep: -1,
			AdaptiveCadence: adaptive, Obs: obs.NewRegistry(),
		})
		c.AddFleet(f)
		c.Run(horizon)
		return c, c.Snapshot()
	}
	_, fixed := twin(false)
	ac, adapted := twin(true)

	passes := func(s Snapshot) float64 {
		total := 0
		for _, n := range s.Passes {
			total += n
		}
		return float64(total)
	}
	savedPct := 100 * (passes(fixed) - passes(adapted)) / passes(fixed)
	netpDeltaPct := 0.0
	if fixed.LogNetP5.P50 != 0 {
		netpDeltaPct = 100 * math.Abs(adapted.LogNetP5.P50-fixed.LogNetP5.P50) / math.Abs(fixed.LogNetP5.P50)
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ac.Run(15 * sim.Minute)
	}
	b.StopTimer()
	b.ReportMetric(savedPct, "saved%")
	b.ReportMetric(netpDeltaPct, "netpΔ%")
	b.ReportMetric(float64(ac.AdaptiveStretched()), "stretched")
	b.ReportMetric(float64(ac.AdaptiveEscalated()), "escalated")
}

// BenchmarkFleetd100kNetworks is the 100k-network smoke: skipped under
// -short (it takes minutes and several GB of headroom).
func BenchmarkFleetd100kNetworks(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-network fleet benchmark skipped under -short")
	}
	benchFleetScale(b, 100_000)
}

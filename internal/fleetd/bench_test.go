package fleetd

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/sim"
)

// converge runs 15-minute windows on a fleet of networks that has run its
// cold window until one window dirty-skips every band-invocation, and
// returns how many windows the fleet has run, the cold one included. Each
// window until then is cheaper than the last, so a benchmark that timed
// from the cold window on would report per-op numbers that depend on b.N.
func converge(b *testing.B, c *Controller, networks int) int {
	warm := 1
	for converged := false; !converged; warm++ {
		if warm == 48 {
			b.Fatal("fleet still planning after 12 simulated hours")
		}
		skipped := c.SkippedFastPasses()
		c.Run(15 * sim.Minute)
		converged = c.SkippedFastPasses()-skipped == int64(2*networks)
	}
	return warm
}

// BenchmarkFleetd1000Networks measures one full i=0 fleet pass: every
// network of a 1000-network synthetic fleet polls and plans over one
// 15-minute cadence window. Deeper cadences are disabled so each
// iteration is exactly one fleet-wide i=0 sweep. Nothing before the timer
// counts per op: the first window builds all 1000 networks and is
// reported as cold_ms, and later windows run until the fleet converges
// (converge; warm_windows counts all of them).
func BenchmarkFleetd1000Networks(b *testing.B) {
	const networks = 1000
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: networks})
	// A private registry: the pass counter checked below must start at 0
	// each time the framework re-enters with a larger b.N.
	c := New(Config{Seed: 1, Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: obs.NewRegistry()})
	c.AddFleet(f)
	aps := 0
	for _, n := range f.Networks {
		aps += len(n.APs)
	}
	cold := time.Now()
	c.Run(15 * sim.Minute)
	coldMS := float64(time.Since(cold).Microseconds()) / 1e3
	warm := converge(b, c, networks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Run(15 * sim.Minute)
		if got, want := int(c.met.passesRun[levelFast].Value()), networks*(warm+i+1); got != want {
			b.Fatalf("iteration %d: %d i=0 passes, want %d", i, got, want)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(aps), "aps")
	b.ReportMetric(coldMS, "cold_ms")
	b.ReportMetric(float64(warm), "warm_windows")
}

// benchFleetScale is the fleet-scale benchmark body: register a fleet,
// run the cold window (which lazily builds every network) and then
// windows until the fleet converges (converge), measure steady-state
// resident bytes/network, and then time whole fleet-wide i=0 sweeps.
// Deeper cadences are disabled so each iteration is exactly networks i=0
// passes.
func benchFleetScale(b *testing.B, networks int) {
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: networks})
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	reg := obs.NewRegistry()
	c := New(Config{Seed: 1, Fast: 15 * sim.Minute, Mid: -1, Deep: -1, Obs: reg})
	c.AddFleet(f)
	c.Run(15 * sim.Minute) // build + first pass
	warm := converge(b, c, networks)

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
	b.ReportMetric(float64(warm), "warm_windows")
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

// BenchmarkFleetd100kNetworks is the 100k-network smoke: skipped under
// -short (it takes minutes and several GB of headroom).
func BenchmarkFleetd100kNetworks(b *testing.B) {
	if testing.Short() {
		b.Skip("100k-network fleet benchmark skipped under -short")
	}
	benchFleetScale(b, 100_000)
}

// durableShape is the fleet_durable workload's controller: 16 networks
// of at most 48 APs (seed 20170811) over a MemStore with hourly
// checkpoints, advanced in 15-minute steps to end. It returns the fleet
// and the configuration to reopen or rebuild it with.
func durableShape(tb testing.TB, end sim.Time) (*Controller, Config, *fleet.Fleet, *MemStore) {
	tb.Helper()
	cfg := Config{Seed: 20170811, CheckpointEvery: sim.Hour, Obs: obs.NewRegistry()}
	store := NewMemStore(nil)
	c, err := Open(cfg, store)
	if err != nil {
		tb.Fatal(err)
	}
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: 16, MaxAPs: 48})
	if err := c.AddFleet(f); err != nil {
		tb.Fatal(err)
	}
	for t := 15 * sim.Minute; t <= end; t += 15 * sim.Minute {
		if err := c.RunTo(t); err != nil {
			tb.Fatal(err)
		}
	}
	return c, cfg, f, store
}

// BenchmarkFleetdRecovery times Open on the fleet_durable shape (16
// networks, hourly checkpoints, 15-minute advances) after 1 and 4
// simulated days, left 45 minutes past its last checkpoint as a crash
// would leave it: Open restores that checkpoint and replays the three
// advances after it, so recovery_ms stays flat as the history grows.
func BenchmarkFleetdRecovery(b *testing.B) {
	for _, days := range []int{1, 4} {
		b.Run(fmt.Sprintf("days=%d", days), func(b *testing.B) {
			c, cfg, _, store := durableShape(b, sim.Time(days)*sim.Day+45*sim.Minute)
			want := c.CheckpointBytes()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Obs = obs.NewRegistry()
				re, err := Open(cfg, store)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 && !bytes.Equal(re.CheckpointBytes(), want) {
					b.Fatal("recovered state differs from the crashed controller's")
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "recovery_ms")
		})
	}
}

// BenchmarkFleetdCheckpoint times the checkpoint codec on the
// fleet_durable shape at that workload's horizon (6h15m). render renders
// the blob; restore puts a controller with the same networks registered,
// and nothing run, where the blob says: it decodes the blob, constructs
// each built network, imports its engine and backend and renders the
// check copy. Registering the networks is not timed. blob_bytes is the
// blob's length.
func BenchmarkFleetdCheckpoint(b *testing.B) {
	c, cfg, f, _ := durableShape(b, 6*sim.Hour+15*sim.Minute)
	data := c.CheckpointBytes()
	b.Run("render", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.CheckpointBytes()
		}
		b.ReportMetric(float64(len(data)), "blob_bytes")
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			cfg.Obs = obs.NewRegistry()
			re := New(cfg)
			if err := re.AddFleet(f); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if err := re.restore(data); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(len(data)), "blob_bytes")
	})
}

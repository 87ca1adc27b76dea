package testbed

import (
	"testing"

	"repro/internal/sim"
)

// dataPlaneAllocCeiling bounds the heap allocations of one simulated second
// of the testbed_downlink shape in steady state. It is the measured count
// plus a tenth (173,930 on linux/amd64 with Go 1.24, where the same shape
// made about 263,000 before MPDU slabs and one-object datagrams), so the
// data plane's per-packet garbage cannot creep back unnoticed. A change that
// lowers the count should lower the ceiling with it.
const dataPlaneAllocCeiling = 191_300

// The data plane's allocation budget as a tier-1 test: the testbed_downlink
// shape of BENCHMARK.json (one FastACK AP, 30 bulk downloads, 1.5 % bad
// hints, invariants checked), its first simulated second outside the count,
// then 100 ms slices.
func TestDataPlaneAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the ceiling holds in non-race runs")
	}
	opt := DefaultOptions()
	opt.Seed = 20170811
	opt.FastACK.CheckInvariants = true
	opt.APModes = []Mode{FastACK}
	opt.ClientsPerAP = 30
	opt.BadHintRate = 0.015
	tb := New(opt)
	tb.Run(sim.Second)
	const slice = 100 * sim.Millisecond
	perSlice := testing.AllocsPerRun(5, func() { tb.Engine.RunUntil(tb.Engine.Now() + slice) })
	perSecond := perSlice * float64(sim.Second/slice)
	t.Logf("%.0f allocs per simulated second", perSecond)
	if perSecond > dataPlaneAllocCeiling {
		t.Fatalf("%.0f allocs per simulated second, ceiling %d", perSecond, dataPlaneAllocCeiling)
	}
}

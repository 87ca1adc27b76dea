package backend

import (
	"runtime"
	"testing"

	"repro/internal/sim"
	"repro/internal/topo"
)

// Poll's steady-state garbage with history on, per AP per poll: an
// office's second day, 288 polls, no faults. The samples are drawn into
// the history in place and a record is a struct appended to a slice, so
// what is left is the slices' amortized growth. A ceiling is the measured
// value plus a tenth.
const (
	pollAllocsCeiling = 0.014
	pollBytesCeiling  = 208
)

func TestPollAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc := topo.Office(11)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgNone), sc, engine)
	b.Start()
	engine.RunUntil(sim.Day)
	const polls = 288
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	engine.RunUntil(sim.Day + polls*pollInterval)
	runtime.ReadMemStats(&after)
	if got := b.Control().PollsAttempted; got != (polls+288)*len(sc.APs) {
		t.Fatalf("%d polls attempted, want %d", got, (polls+288)*len(sc.APs))
	}
	per := float64(polls * len(sc.APs))
	allocs := float64(after.Mallocs-before.Mallocs) / per
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / per
	t.Logf("%.4f allocations and %.1f bytes per AP per poll over %d APs", allocs, bytes, len(sc.APs))
	if allocs > pollAllocsCeiling {
		t.Errorf("%.4f allocations per AP per poll, ceiling %v", allocs, pollAllocsCeiling)
	}
	if bytes > pollBytesCeiling {
		t.Errorf("%.1f bytes per AP per poll, ceiling %v", bytes, pollBytesCeiling)
	}
}

package turboca_test

import (
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// plannerPassAllocCeiling bounds the heap allocations of one RunNBO over
// the BenchmarkPerfNBOStadium input (the stadium bowl at engine seed 3,
// 5 GHz at 13:00, hops {1, 0}) on two workers: the measured count plus a
// tenth (117 on linux/amd64 with Go 1.24). What a pass allocates is per
// pass, per hop level and per round — clones, round outputs, the plan —
// so one allocation per ACC call in the two-hop walk would multiply the
// count by hundreds. A change that lowers the count should lower the
// ceiling with it.
const plannerPassAllocCeiling = 129

func TestPlannerPassAllocCeiling(t *testing.T) {
	sc := topo.Stadium(3)
	engine := sim.NewEngine(3)
	be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), sc, engine)
	engine.RunUntil(13 * sim.Hour)
	in := be.PlannerInput(spectrum.Band5)
	cfg := turboca.DefaultConfig()
	cfg.Workers = 2
	n := testing.AllocsPerRun(3, func() {
		turboca.RunNBO(cfg, in, rand.New(rand.NewSource(4)), []int{1, 0})
	})
	t.Logf("%v allocations per pass over %d APs", n, len(in.APs))
	if n > plannerPassAllocCeiling {
		t.Fatalf("%v allocations per planner pass, ceiling %d", n, plannerPassAllocCeiling)
	}
}

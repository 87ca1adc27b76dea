package turboca_test

import (
	"runtime"
	"testing"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// plannerPassCeilings bound the heap allocations and bytes of one RunNBO
// (hops {1, 0}, two workers, 5 GHz at 13:00, engine seed 3) over two
// inputs: the measured value plus a tenth, on linux/amd64 with Go 1.24.
// The stadium bowl is BenchmarkPerfNBOStadium's input. What a pass
// allocates is per pass, per hop level and per round — clones, round
// outputs, the plan — so one allocation per ACC call in its two-hop walk
// would multiply the count by hundreds. The office is a fleet-sized
// network, where a pass's bytes are few enough that one standard-library
// rand source per worker and level (4.9 KB each, one allocation like the
// one-word source that replaced it) shows: it raised the office's bytes
// by 27 % and the stadium's by 2.3 %. A change that lowers a figure
// should lower its ceiling with it.
var plannerPassCeilings = []struct {
	name          string
	scenario      func(int64) *topo.Scenario
	allocs, bytes float64
}{
	{"stadium", topo.Stadium, 129, 1_041_400}, // 119 allocs, 946,717 B
	{"office", topo.Office, 109, 87_500},      // 99 allocs, 79,506 B
}

func TestPlannerPassAllocCeiling(t *testing.T) {
	for _, tc := range plannerPassCeilings {
		engine := sim.NewEngine(3)
		be := backend.New(backend.DefaultOptions(backend.AlgTurboCA), tc.scenario(3), engine)
		engine.RunUntil(13 * sim.Hour)
		in := be.PlannerInput(spectrum.Band5)
		cfg := turboca.DefaultConfig()
		cfg.Workers = 2
		allocs, bytes := perPass(3, func() {
			turboca.RunNBO(cfg, in, sim.NewRNG(4), []int{1, 0})
		})
		t.Logf("%s: %v allocations and %v bytes per pass over %d APs", tc.name, allocs, bytes, len(in.APs))
		if allocs > tc.allocs {
			t.Errorf("%s: %v allocations per planner pass, ceiling %v", tc.name, allocs, tc.allocs)
		}
		if bytes > tc.bytes {
			t.Errorf("%s: %v bytes per planner pass, ceiling %v", tc.name, bytes, tc.bytes)
		}
	}
}

// perPass is testing.AllocsPerRun reporting bytes beside the count: one
// warm-up call, then the mean Mallocs and TotalAlloc deltas over runs
// calls, each truncated to a whole number, with GOMAXPROCS at 1.
func perPass(runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(runs)),
		float64((after.TotalAlloc - before.TotalAlloc) / uint64(runs))
}

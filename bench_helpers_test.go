package repro_test

import (
	"math/rand"

	"repro/internal/backend"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// plannerInput returns TurboCA's default options and the 5 GHz planner
// input of sc at 13:00 — the midday snapshot the planner ablations and the
// NBO micro-benchmarks plan against.
func plannerInput(sc *topo.Scenario, engineSeed int64) (backend.Options, turboca.Input) {
	opt := backend.DefaultOptions(backend.AlgTurboCA)
	engine := sim.NewEngine(engineSeed)
	be := backend.New(opt, sc, engine)
	engine.RunUntil(13 * sim.Hour)
	return opt, be.PlannerInput(spectrum.Band5)
}

// turbocaRun executes one RunNBO with the given hop schedule (and
// optionally the uniform-pick ablation), returning log NetP.
func turbocaRun(opt backend.Options, in turboca.Input, hops []int, uniform bool) float64 {
	cfg := opt.Planner
	cfg.UniformPick = uniform
	cfg.Runs = 4
	res := turboca.RunNBO(cfg, in, rand.New(rand.NewSource(77)), hops)
	return res.LogNetP
}

// turbocaSwitches plans twice: once to reach a good plan, then again with
// the given penalty to measure churn on an already-stable network.
func turbocaSwitches(opt backend.Options, in turboca.Input, penalty float64) int {
	cfg := opt.Planner
	cfg.Runs = 4
	rng := rand.New(rand.NewSource(78))
	first := turboca.RunNBO(cfg, in, rng, []int{1, 0})
	// Install the first plan as current.
	stable := in
	stable.APs = append([]turboca.APView(nil), in.APs...)
	for i := range stable.APs {
		if a, ok := first.Plan[stable.APs[i].ID]; ok {
			stable.APs[i].Current = a.Channel
		}
	}
	cfg.SwitchPenalty = penalty
	second := turboca.RunNBO(cfg, stable, rng, []int{1, 0})
	return second.Switches
}

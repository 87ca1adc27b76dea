package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/sim"
)

// sizing is the amount of simulated work one repeat of each workload does.
// A repeat is small enough that several fit in a run: the host's speed
// drifts by more than the regression bound over tens of seconds, and only a
// median over repeats rides that out.
type sizing struct {
	fleetNets, durableNets       int
	fleetHorizon, durableHorizon sim.Time
	densePasses                  int
	denseStep                    sim.Time
	downlinkSim, mixedSim        sim.Time
	agentFlows, agentSegments    int
	walkHorizon                  sim.Time
	probeCalls                   int
}

var fullSize = sizing{
	fleetNets: 64, fleetHorizon: 3*sim.Hour + 15*sim.Minute,
	durableNets: 16, durableHorizon: 6*sim.Hour + 15*sim.Minute,
	densePasses: 4, denseStep: 45 * sim.Minute,
	downlinkSim: 5 * sim.Second, mixedSim: 8 * sim.Second,
	agentFlows: 10_000, agentSegments: 500_000,
	walkHorizon: sim.Hour, probeCalls: 100_000,
}

// quickSize is the tier-1 test's sizing: every workload, layer and probe
// runs, in a few seconds in total.
var quickSize = sizing{
	fleetNets: 20, fleetHorizon: sim.Hour,
	durableNets: 20, durableHorizon: sim.Hour + 15*sim.Minute,
	densePasses: 2, denseStep: 30 * sim.Minute,
	downlinkSim: 5 * sim.Second, mixedSim: 5 * sim.Second,
	agentFlows: 1000, agentSegments: 100_000,
	walkHorizon: 15 * sim.Minute, probeCalls: 2000,
}

// subSeed is the k-th of the inputs one --seed expands to. Repeats cycle
// through a workload's first few inputs, so every reported value averages
// over several generated inputs and, once the repeats outnumber the inputs,
// some input has run twice, which is what the determinism gate compares.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(k+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// setupRuns is how many times a repeat builds its objects: all but the last
// are timed and thrown away, so setup_s is a median even where one build
// takes under a millisecond.
const setupRuns = 9

// repeat is what one fresh build-and-run of a workload produced.
type repeat struct {
	seed        int64
	traced      bool
	e2e         map[string]float64
	layers      map[string]float64
	ops, failed int
	wallS       float64  // cold + steady wall time, for the tracing overhead
	timing      phases   // every wall-clock reading of the repeat, for the floor
	fingerprint string   // equal for equal seeds, or the run is not deterministic
	problems    []string // correctness-gate failures
	// unfit, when set, says why this input is not one the benchmark measures;
	// measure drops the repeat and draws the slot's next input.
	unfit string
}

func (r *repeat) failf(format string, a ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, a...))
}

// memSnap is the heap after a forced collection plus the cumulative counters
// the per-layer runtime metrics difference.
type memSnap struct {
	heap, mallocs, gcPauseNS float64
	gcCycles                 float64
}

func readMem() memSnap {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{
		heap: float64(ms.HeapAlloc), mallocs: float64(ms.Mallocs),
		gcPauseNS: float64(ms.PauseTotalNs), gcCycles: float64(ms.NumGC),
	}
}

// runCtx is what a workload sees of the harness during one repeat.
type runCtx struct {
	size    sizing
	procs   int
	workdir string
	tr      *tracer // nil on untraced repeats
	rep     *repeat

	base      memSnap // before the kept build
	spanStart int     // first span of this repeat
}

// setup times build setupRuns times, discarding all but the last build, and
// returns every time. discard must drop every reference to what build made:
// the heap baseline is taken just before the kept build.
func (rc *runCtx) setup(build, discard func()) (ts []float64) {
	for i := 0; i < setupRuns; i++ {
		last := i == setupRuns-1
		if last {
			rc.base = readMem()
		}
		t0 := time.Now()
		if last {
			rc.tr.span("bench.setup", 1, build)
		} else {
			build()
		}
		ts = append(ts, time.Since(t0).Seconds())
		if !last {
			discard()
		}
	}
	return ts
}

// timed runs fn inside a span and returns its wall seconds.
func (rc *runCtx) timed(name string, fn func()) float64 {
	t0 := time.Now()
	rc.tr.span(name, 1, fn)
	return time.Since(t0).Seconds()
}

// phases is the shape every workload reduces to: build, first unit of work
// on the fresh objects, then a fixed amount of steady work in timed units.
type phases struct {
	setupsS      []float64 // wall time of each of the setupRuns builds
	coldS        float64
	unitsMS      []float64 // wall time of each steady unit
	work         float64   // passes, simulated seconds or segments done in the steady phase
	extraSteadyS float64   // steady wall time outside the units (close + recovery)
	sizeUnits    float64   // networks, APs or flows the live heap is divided by
	quality      float64
	steadyMem    [2]memSnap // around the steady phase
}

func (p phases) steadyS() float64 {
	s := p.extraSteadyS
	for _, u := range p.unitsMS {
		s += u / 1e3
	}
	return s
}

// finish turns the phases into the end-to-end metrics and the runtime layer.
// live holds the workload's objects so the closing heap reading sees them.
func (rc *runCtx) finish(p phases, live ...any) {
	end := readMem()
	runtime.KeepAlive(live)
	rc.rep.wallS = p.coldS + p.steadyS()
	rc.rep.timing = p
	rc.rep.e2e = map[string]float64{
		"setup_s":        median(p.setupsS) + p.coldS,
		"work_per_s":     ratio(p.work, p.steadyS()),
		"bytes_per_unit": ratio(end.heap-rc.base.heap, p.sizeUnits),
		"result_quality": p.quality,
	}
	rc.layer("runtime.build_s", median(p.setupsS))
	rc.layer("runtime.cold_sweep_s", p.coldS)
	m0, m1 := p.steadyMem[0], p.steadyMem[1]
	rc.layer("runtime.allocs_per_unit", ratio(m1.mallocs-m0.mallocs, p.work))
	rc.layer("runtime.gc_cycles", end.gcCycles-rc.base.gcCycles)
	rc.layer("runtime.gc_pause_ms", (end.gcPauseNS-rc.base.gcPauseNS)/1e6)
	rc.layer("runtime.unit_p50_ms", median(p.unitsMS))
	rc.layer("runtime.unit_p90_ms", sampleOf(p.unitsMS).Percentile(90))
}

func (rc *runCtx) layer(name string, v float64) { rc.rep.layers[name] = v }

// registry returns a private registry for this repeat, with the program's
// own tracer on when the repeat is traced.
func (rc *runCtx) registry() *obs.Registry {
	reg := obs.NewRegistry()
	rc.tr.enable(reg)
	return reg
}

// workload is one named set of inputs. run fills rc.rep from one fresh
// build-and-run on the given seed.
type workload struct {
	name  string
	plane string // "control" or "data": which layer probes a traced run adds
	// inputs is how many generated inputs one --seed expands to: as many as
	// still come round four times or more in a run, so that the floor has
	// that many readings of every piece. The fleets' cold sweep is one piece
	// of a third to two thirds of a second, the longest there is, and their
	// result moves by 0.02 % across inputs, so they take the fewest;
	// testbed_mixed's total goodput moves ±10 % with where its 20 clients
	// land and its repeats are cheap, so it takes the most.
	inputs int
	run    func(rc *runCtx, seed int64)
}

var workloads = []workload{
	{"fleet_converge", "control", 2, func(rc *runCtx, seed int64) { runFleet(rc, seed, false) }},
	{"fleet_durable", "control", 2, func(rc *runCtx, seed int64) { runFleet(rc, seed, true) }},
	{"plan_dense", "control", 3, runDense},
	{"testbed_downlink", "data", 3, func(rc *runCtx, seed int64) { runTestbed(rc, seed, false) }},
	{"testbed_mixed", "data", 4, func(rc *runCtx, seed int64) { runTestbed(rc, seed, true) }},
	{"agent_manyflow", "data", 3, runAgent},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runOpts is one measurement of one workload.
type runOpts struct {
	seed    int64
	seconds float64 // keep starting repeats until this much time has passed
	repeats int     // > 0 fixes the repeat count instead
	trace   bool    // alternate traced and untraced rounds of inputs, then probe the layers
	size    sizing
	procs   int
	workdir string
	tr      *tracer // shared across workloads so one span file holds the run
}

// result is every repeat of one workload plus the gate's verdict.
type result struct {
	workload string
	repeats  []repeat
	probes   map[string]float64 // trace.* metrics of a traced run
	floor    map[string]float64 // the timed end-to-end metrics, see floor
	problems []string
	skipped  []string // inputs drawn and replaced as unfit, with the reason
}

// measure runs the workload's repeats. Each builds fresh objects on a
// private registry with a collection in between; repeats of one sub-seed
// must leave identical fingerprints. An input a workload declares unfit is
// replaced by the next sub-seed of its slot; the program is deterministic, so
// the same --seed skips the same inputs every time.
func measure(w workload, o runOpts) result {
	res := result{workload: w.name}
	start := time.Now()
	budget := o.seconds
	if o.trace {
		budget *= 0.6 // the rest is for the layer probes
	}
	spanFrom := 0
	if o.trace {
		spanFrom = len(o.tr.spans)
	}
	prints := map[int64]string{}
	next := make([]int, w.inputs) // per slot, how many inputs were replaced
	for r := 0; ; {
		if o.repeats > 0 && r >= o.repeats {
			break
		}
		// At least every input twice: the floor and the determinism gate
		// compare repeats of one input, and a traced run needs every input
		// both ways.
		if o.repeats == 0 && r >= 2*w.inputs && time.Since(start).Seconds() >= budget {
			break
		}
		slot := r % w.inputs
		rep := repeat{seed: subSeed(o.seed, slot+next[slot]*w.inputs), layers: map[string]float64{}}
		rc := &runCtx{size: o.size, procs: o.procs, workdir: o.workdir, rep: &rep}
		if o.trace && r/w.inputs%2 == 0 {
			// Whole rounds of inputs alternate, so every input runs traced
			// and untraced and the gate compares the two.
			rep.traced = true
			rc.tr = o.tr
			rc.spanStart = len(o.tr.spans)
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					rep.failf("panic: %v", p)
				}
			}()
			w.run(rc, rep.seed)
		}()
		if rep.unfit != "" && len(rep.problems) == 0 {
			if rep.traced {
				o.tr.spans = o.tr.spans[:rc.spanStart]
			}
			res.skipped = append(res.skipped, fmt.Sprintf("input %d: %s", rep.seed, rep.unfit))
			next[slot]++
			// About one input in a hundred is unfit; a run that meets more
			// of them than it has slots is measuring a broken program.
			if len(res.skipped) > w.inputs {
				res.problems = append(res.problems, fmt.Sprintf("%s: %d unfit inputs, last %s", w.name, len(res.skipped), rep.unfit))
				break
			}
			continue
		}
		if prev, ok := prints[rep.seed]; ok && prev != rep.fingerprint {
			rep.failf("fingerprint differs from the earlier repeat on seed %d", rep.seed)
		}
		prints[rep.seed] = rep.fingerprint
		for _, p := range rep.problems {
			res.problems = append(res.problems, fmt.Sprintf("%s repeat %d: %s", w.name, r, p))
		}
		res.repeats = append(res.repeats, rep)
		r++
	}
	res.floor = floor(res.repeats)
	if o.trace {
		res.probes = traceMetrics(w, o, spanFrom, res.repeats)
	}
	return res
}

// floor is the two timed end-to-end metrics with the host taken out as far
// as one run allows. This machine is a few cores of a shared host that steals
// up to half of one for minutes on end: the median repeat of a run
// then reads two to three times slower than the same run a minute later, and
// no bound survives that. But the host only ever adds time, and a repeat is
// the same deterministic work every time its input comes round, piece by
// piece. So, per input, each timed piece (a build, the cold unit, every steady
// unit, close + recovery) counts at the fastest it ran in any untraced repeat;
// work_per_s is the input's work over the sum of those, and the reported value
// is the mean over inputs. A change to the program moves every reading of a
// piece, and so its floor; a neighbour on the host moves only some.
func floor(reps []repeat) map[string]float64 {
	by := map[int64]*phases{}
	var order []int64
	for _, rep := range reps {
		if rep.traced {
			continue
		}
		p := rep.timing
		f, ok := by[rep.seed]
		if !ok {
			f = &phases{
				setupsS: []float64{math.Inf(1)}, coldS: p.coldS, extraSteadyS: p.extraSteadyS,
				unitsMS: append([]float64(nil), p.unitsMS...), work: p.work,
			}
			by[rep.seed] = f
			order = append(order, rep.seed)
		}
		for _, s := range p.setupsS {
			f.setupsS[0] = math.Min(f.setupsS[0], s)
		}
		f.coldS = math.Min(f.coldS, p.coldS)
		f.extraSteadyS = math.Min(f.extraSteadyS, p.extraSteadyS)
		// Repeats of one input do the same units; the fingerprint gate fails
		// the run if they do not.
		for j := 0; j < len(f.unitsMS) && j < len(p.unitsMS); j++ {
			f.unitsMS[j] = math.Min(f.unitsMS[j], p.unitsMS[j])
		}
	}
	if len(order) == 0 {
		return nil
	}
	var setup, rate []float64
	for _, seed := range order {
		f := by[seed]
		setup = append(setup, f.setupsS[0]+f.coldS)
		rate = append(rate, ratio(f.work, f.steadyS()))
	}
	return map[string]float64{"setup_s": mean(setup), "work_per_s": mean(rate)}
}

// summary is one metric's values over the repeats of one workload.
type summary struct {
	value  float64
	q1, q3 float64 // quartiles over all repeats
	n      int
}

// timedUnits are the units of values measured with the wall clock.
var timedUnits = map[string]bool{"s": true, "ms": true, "us": true, "ns": true, "1/s": true, "%": true}

// summarize reduces one metric's per-repeat values to the reported one. A
// timed value is the median over all repeats: the host only ever slows a
// repeat down, and a median over eight or more shrugs off a slow stretch. Any
// other value is fixed by its input (quality, counts, live bytes), so it is
// the mean over inputs of the median within an input, which does not depend
// on how many repeats fit in the run.
func summarize(unit string, seeds []int64, vals []float64) summary {
	q1, q3 := quartiles(vals)
	s := summary{value: median(vals), q1: q1, q3: q3, n: len(vals)}
	if timedUnits[unit] {
		return s
	}
	by := map[int64][]float64{}
	var order []int64
	for i, seed := range seeds {
		if _, ok := by[seed]; !ok {
			order = append(order, seed)
		}
		by[seed] = append(by[seed], vals[i])
	}
	var meds []float64
	for _, seed := range order {
		meds = append(meds, median(by[seed]))
	}
	s.value = mean(meds)
	return s
}

func (res result) counts() (attempted, failed int) {
	for _, rep := range res.repeats {
		attempted += rep.ops
		failed += rep.failed
	}
	if len(res.problems) > 0 {
		failed = attempted
	}
	return attempted, failed
}

func nproc() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

package turboca

import (
	"math/rand"
	"sync"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// EnvironmentFn supplies the current planning input for a band; the
// backend implements it by snapshotting the latest AP reports.
type EnvironmentFn func(band spectrum.Band) Input

// ApplyFn delivers an accepted plan to the network (the backend pushes the
// configuration to the APs) and returns how many AP channel switches were
// actually applied right away. Deliveries that land later — push retries,
// reconciliations — are reported by incrementing Service.SwitchesTotal
// directly, so partial applications are never over-counted.
type ApplyFn func(band spectrum.Band, plan Plan, res Result) (switched int)

// Service is TurboCA's run-time schedule (§4.4.4): NBO with i=0 every 15
// minutes, i=1 then i=0 every 3 hours, and i=2,1,0 once a day. Every
// schedule ends with i=0, which guarantees NetP does not regress; the
// deeper hop limits escape local optima at most once per their period.
type Service struct {
	Cfg   Config
	Env   EnvironmentFn
	Apply ApplyFn
	Bands []spectrum.Band

	// Periods are configurable for accelerated simulation.
	Fast sim.Time // i=0 cadence (default 15 min)
	Mid  sim.Time // i=1,0 cadence (default 3 h)
	Deep sim.Time // i=2,1,0 cadence (default 24 h)

	// MaxStaleFraction is the service's degradation guard: when more than
	// this fraction of a band's APs is planned from stale or pinned
	// telemetry, the deep (i>0) passes of an invocation are skipped and
	// only the safe i=0 refinement runs — don't make bold moves on data
	// you don't trust. 0 or >= 1 disables the guard.
	MaxStaleFraction float64

	// DirtySkip enables provable replay elision for fast-only passes: an
	// invocation whose hop schedule is exactly [0] and whose sanitized
	// input digest equals the band's previous executed invocation — which
	// was itself a fast-only no-op — is skipped outright. Because
	// per-invocation RNG seeds derive from the input content (see
	// invocationSeed), re-running would be bit-for-bit the computation
	// that already changed nothing: counters and LastLogNetP are already
	// exactly what the re-run would leave behind. Invocations carrying
	// deep (i>0) passes are never skipped.
	DirtySkip bool

	// seed anchors the per-invocation RNG seeds. Each invocation's seed
	// mixes seed with the band, hop schedule, and input digest, so a plan
	// depends only on what is being planned — not on ticker interleaving,
	// on which other bands are managed, or on how many invocations came
	// before.
	seed  int64
	stops []func()

	// lastNoop, per band: the input digest of the last executed
	// invocation, present only when that invocation was fast-only ([0])
	// and produced no improvement. Any other outcome clears the entry, so
	// a skip is always justified by the immediately preceding executed
	// run.
	lastNoop map[spectrum.Band]uint64

	// Counters for evaluation.
	RunsTotal     int
	SwitchesTotal int
	ImprovedTotal int
	// SkippedTotal counts band-invocations elided by DirtySkip (each also
	// counts in RunsTotal: a skip is a run whose outcome was proven
	// without executing it).
	SkippedTotal int
	// DegradedTotal counts band-invocations whose deep passes were
	// skipped by the staleness guard.
	DegradedTotal int
	// SanitizedTotal accumulates Input.Sanitize corrections across all
	// invocations (malformed telemetry that reached the planner).
	SanitizedTotal int
	LastLogNetP    map[spectrum.Band]float64
}

// NewService builds a service with the paper's default cadences.
func NewService(cfg Config, env EnvironmentFn, apply ApplyFn, seed int64) *Service {
	return &Service{
		Cfg: cfg, Env: env, Apply: apply,
		Bands:       []spectrum.Band{spectrum.Band5, spectrum.Band2G4},
		Fast:        15 * sim.Minute,
		Mid:         3 * sim.Hour,
		Deep:        24 * sim.Hour,
		seed:        seed,
		lastNoop:    map[spectrum.Band]uint64{},
		LastLogNetP: map[spectrum.Band]float64{},
	}
}

// SkipMemos returns a copy of the per-band dirty-skip memo table: the
// input digest of each band's last executed fast-only no-op invocation.
// The fleet durability layer folds these into checkpoints — the memos
// are part of the controller state that must match between a recovered
// process and its uncrashed twin, since a divergent memo would skip (or
// run) a pass the twin runs (or skips).
func (s *Service) SkipMemos() map[spectrum.Band]uint64 {
	out := make(map[spectrum.Band]uint64, len(s.lastNoop))
	for b, d := range s.lastNoop {
		out[b] = d
	}
	return out
}

// Start registers the three cadences on the engine. Mid and Deep ticks
// subsume the shallower passes (they end with i=0), mirroring the paper's
// schedule composition.
func (s *Service) Start(engine *sim.Engine) {
	s.stops = append(s.stops,
		engine.Ticker(s.Fast, func(e *sim.Engine) { s.RunOnce([]int{0}) }),
		engine.Ticker(s.Mid, func(e *sim.Engine) { s.RunOnce([]int{1, 0}) }),
		engine.Ticker(s.Deep, func(e *sim.Engine) { s.RunOnce([]int{2, 1, 0}) }),
	)
}

// Stop cancels the schedule.
func (s *Service) Stop() {
	for _, stop := range s.stops {
		stop()
	}
	s.stops = nil
}

// RunOnce executes one scheduled invocation across all managed bands.
// Inputs are snapshotted, sanitized, digested, and skip-checked serially
// in Bands order (EnvironmentFn implementations read shared backend
// state); the surviving bands are then planned concurrently — each
// goroutine owning a private rng built from its content-derived seed, so
// no *rand.Rand is ever shared even if Bands lists a band twice — and
// results are applied serially in Bands order, so counters, Apply
// callbacks, and every plan are deterministic. Duplicate Bands entries are
// planned once per invocation.
func (s *Service) RunOnce(hops []int) {
	sp := s.Cfg.obsRegistry().Tracer().Begin("turboca.run_once")
	defer sp.End()
	type job struct {
		band   spectrum.Band
		in     Input
		hops   []int
		seed   int64
		digest uint64
		res    Result
	}
	var jobs []*job
	planned := map[spectrum.Band]bool{}
	for _, band := range s.Bands {
		if planned[band] {
			continue
		}
		planned[band] = true
		in := s.Env(band)
		if len(in.APs) == 0 {
			continue
		}
		// Harden every input before it reaches the metric evaluation: a
		// degraded control plane may hand us NaN loads, duplicate views,
		// or neighbor edges to APs that fell out of the snapshot.
		s.SanitizedTotal += in.Sanitize()
		jobHops := hops
		if s.degraded(in, hops) {
			jobHops = []int{0}
			s.DegradedTotal++
		}
		digest := in.Digest()
		if last, ok := s.lastNoop[band]; ok && s.DirtySkip && fastOnly(jobHops) && last == digest {
			// Provable replay: the band's previous executed invocation was
			// this exact fast-only computation (same digest, hence same
			// input and same seed) and it changed nothing. Running it again
			// would leave every counter, LastLogNetP, and the network
			// bit-for-bit where they already are.
			s.RunsTotal++
			s.SkippedTotal++
			continue
		}
		jobs = append(jobs, &job{
			band: band, in: in, hops: jobHops, digest: digest,
			seed: invocationSeed(s.seed, band, jobHops, digest),
		})
	}
	var wg sync.WaitGroup
	for _, j := range jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			j.res = RunNBO(s.Cfg, j.in, rand.New(rand.NewSource(j.seed)), j.hops)
		}(j)
	}
	wg.Wait()
	for _, j := range jobs {
		s.RunsTotal++
		s.LastLogNetP[j.band] = j.res.LogNetP
		// Skip memo: only an executed fast-only no-op licenses eliding its
		// replay. Anything else — an improvement (the next input should
		// reflect the pushed plan; until it does, replans must run), or a
		// deeper schedule — clears the band's entry.
		if !j.res.Improved && fastOnly(j.hops) {
			s.lastNoop[j.band] = j.digest
		} else {
			delete(s.lastNoop, j.band)
		}
		if j.res.Improved {
			s.ImprovedTotal++
			if s.Apply != nil {
				s.SwitchesTotal += s.Apply(j.band, j.res.Plan, j.res)
			} else {
				s.SwitchesTotal += j.res.Switches
			}
		}
	}
}

// fastOnly reports whether a hop schedule is exactly the safe i=0
// refinement — the only schedule DirtySkip may elide.
func fastOnly(hops []int) bool {
	return len(hops) == 1 && hops[0] == 0
}

// degraded reports whether an invocation's deep passes must be skipped
// for this input: the guard only bites when the schedule actually carries
// a deep (i>0) pass and the stale share exceeds the configured bound.
func (s *Service) degraded(in Input, hops []int) bool {
	if s.MaxStaleFraction <= 0 || s.MaxStaleFraction >= 1 {
		return false
	}
	deep := false
	for _, h := range hops {
		if h > 0 {
			deep = true
			break
		}
	}
	return deep && in.StaleFraction() > s.MaxStaleFraction
}

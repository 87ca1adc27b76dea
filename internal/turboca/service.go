package turboca

import (
	"maps"
	"slices"
	"sync"

	"repro/internal/codec"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// EnvironmentFn supplies the current planning input for a band; the
// backend implements it by snapshotting the latest AP reports.
type EnvironmentFn func(band spectrum.Band) Input

// ApplyFn delivers an accepted plan to the network (the backend pushes the
// configuration to the APs). The service does not count switches: the
// network that applies them does (backend.Backend.Switches).
type ApplyFn func(band spectrum.Band, plan Plan)

// The §4.4.4 cadences of the three schedules.
const (
	FastCadence = 15 * sim.Minute // i=0
	MidCadence  = 3 * sim.Hour    // i=1, then i=0
	DeepCadence = 24 * sim.Hour   // i=2, 1, then 0
)

// Service is TurboCA's run-time schedule (§4.4.4): NBO with i=0 every
// FastCadence, i=1 then i=0 every MidCadence, and i=2,1,0 every
// DeepCadence. Every schedule ends with i=0, which guarantees NetP does not
// regress; the deeper hop limits escape local optima at most once per
// their period.
type Service struct {
	Cfg   Config
	Env   EnvironmentFn
	Apply ApplyFn
	Bands []spectrum.Band

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

// NewService builds a service planning both bands.
func NewService(cfg Config, env EnvironmentFn, apply ApplyFn, seed int64) *Service {
	return &Service{
		Cfg: cfg, Env: env, Apply: apply,
		Bands:       []spectrum.Band{spectrum.Band5, spectrum.Band2G4},
		seed:        seed,
		lastNoop:    map[spectrum.Band]uint64{},
		LastLogNetP: map[spectrum.Band]float64{},
	}
}

// ServiceState is what a continuation of a Service depends on beyond its
// configuration: the dirty-skip memos (a divergent memo would skip, or
// run, a pass an uninterrupted service runs, or skips), the last objective
// per band and the counters.
type ServiceState struct {
	LastNoop    map[spectrum.Band]uint64
	LastLogNetP map[spectrum.Band]float64
	// The counters: RunsTotal, ImprovedTotal, SkippedTotal,
	// DegradedTotal and SanitizedTotal.
	Runs, Improved, Skipped, Degraded, Sanitized int
}

// Export writes the service's state; the maps are copies.
func (s *Service) Export() ServiceState {
	return ServiceState{
		LastNoop:    maps.Clone(s.lastNoop),
		LastLogNetP: maps.Clone(s.LastLogNetP),
		Runs:        s.RunsTotal, Improved: s.ImprovedTotal, Skipped: s.SkippedTotal,
		Degraded: s.DegradedTotal, Sanitized: s.SanitizedTotal,
	}
}

// Import puts the service where st says.
func (s *Service) Import(st ServiceState) {
	s.lastNoop, s.LastLogNetP = map[spectrum.Band]uint64{}, map[spectrum.Band]float64{}
	maps.Copy(s.lastNoop, st.LastNoop)
	maps.Copy(s.LastLogNetP, st.LastLogNetP)
	s.RunsTotal, s.ImprovedTotal, s.SkippedTotal = st.Runs, st.Improved, st.Skipped
	s.DegradedTotal, s.SanitizedTotal = st.Degraded, st.Sanitized
}

// Append appends st in the restart-state encoding (package codec): each
// memo map as its length and its (band, value) pairs in band order, then
// the five counters.
func (st *ServiceState) Append(b []byte) []byte {
	b = appendBandMap(b, st.LastNoop, codec.AppendUint)
	b = appendBandMap(b, st.LastLogNetP, codec.AppendFloat)
	for _, n := range [...]int{st.Runs, st.Improved, st.Skipped, st.Degraded, st.Sanitized} {
		b = codec.AppendInt(b, int64(n))
	}
	return b
}

// ReadServiceState reads a ServiceState that Append wrote; a malformed
// one sets r's error.
func ReadServiceState(r *codec.Reader) ServiceState {
	st := ServiceState{
		LastNoop:    readBandMap(r, (*codec.Reader).Uint),
		LastLogNetP: readBandMap(r, (*codec.Reader).Float),
	}
	for _, n := range [...]*int{&st.Runs, &st.Improved, &st.Skipped, &st.Degraded, &st.Sanitized} {
		*n = int(r.Int())
	}
	return st
}

func appendBandMap[V any](b []byte, m map[spectrum.Band]V, value func([]byte, V) []byte) []byte {
	var buf [4]spectrum.Band
	bands := buf[:0]
	for band := range m {
		bands = append(bands, band)
	}
	slices.Sort(bands)
	b = codec.AppendUint(b, uint64(len(bands)))
	for _, band := range bands {
		b = value(codec.AppendInt(b, int64(band)), m[band])
	}
	return b
}

// readBandMap reads what appendBandMap wrote: nil for no entries, and an
// error for bands out of order.
func readBandMap[V any](r *codec.Reader, value func(*codec.Reader) V) map[spectrum.Band]V {
	n := r.Len(2) // a band and at least one byte of value
	if n == 0 {
		return nil
	}
	m := make(map[spectrum.Band]V, n)
	prev := spectrum.Band(0)
	for i := 0; i < n; i++ {
		band := spectrum.Band(r.Int())
		if i > 0 && band <= prev {
			r.Failf("turboca: band %d after band %d", band, prev)
		}
		m[band], prev = value(r), band
	}
	return m
}

// Start registers the three cadences on the engine. Mid and Deep ticks
// subsume the shallower passes (they end with i=0), mirroring the paper's
// schedule composition.
func (s *Service) Start(engine *sim.Engine) {
	s.stops = append(s.stops,
		engine.Ticker(FastCadence, func(e *sim.Engine) { s.RunOnce([]int{0}) }),
		engine.Ticker(MidCadence, func(e *sim.Engine) { s.RunOnce([]int{1, 0}) }),
		engine.Ticker(DeepCadence, func(e *sim.Engine) { s.RunOnce([]int{2, 1, 0}) }),
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
	sp := s.Cfg.tracer().Begin("turboca.run_once")
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
		if degraded(in, hops) {
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
			j.res = RunNBO(s.Cfg, j.in, sim.NewRNG(j.seed), j.hops)
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
				s.Apply(j.band, j.res.Plan)
			}
		}
	}
}

// fastOnly reports whether a hop schedule is exactly the safe i=0
// refinement — the only schedule DirtySkip may elide.
func fastOnly(hops []int) bool {
	return len(hops) == 1 && hops[0] == 0
}

// maxStaleFraction is the service's degradation guard: when more than
// this fraction of a band's APs is planned from stale or pinned telemetry,
// the deep (i>0) passes of an invocation are skipped and only the safe
// i=0 refinement runs — don't make bold moves on data you don't trust.
const maxStaleFraction = 0.5

// degraded reports whether an invocation's deep passes must be skipped
// for this input: the guard only bites when the schedule actually carries
// a deep (i>0) pass and the stale share exceeds maxStaleFraction.
func degraded(in Input, hops []int) bool {
	deep := false
	for _, h := range hops {
		if h > 0 {
			deep = true
			break
		}
	}
	return deep && in.StaleFraction() > maxStaleFraction
}

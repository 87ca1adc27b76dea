package experiments

import (
	"repro/internal/backend"
	"repro/internal/fastack"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/pcap"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/testbed"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Session holds what one sweep over the Index shares. Three runs feed
// several figures each — the synthesized fleet (Figs 1–5, Table 1,
// Density), the two-algorithm deployment A/B (Table 2, Figs 8–9, Dense)
// and the testbed run (Figs 10–18, Chaos, Uplink) — and each is performed
// at most once per distinct configuration, when the first experiment that
// needs it asks.
type Session struct {
	Opt Options
	// Capture, when set, records the wired-port traffic of the first
	// testbed run performed (cmd/experiments -pcap).
	Capture *pcap.Writer
	// Runs counts the shared runs actually performed, as opposed to served
	// from the memo.
	Runs struct{ Fleet, AB, Testbed int }

	obsBase obs.Snapshot
	fleet   *fleet.Fleet
	ab      map[string]ABResult
	tb      map[testbedKey]*TestbedResult
}

// NewSession starts a sweep. The Metrics report covers what the default
// obs registry accumulates from here on.
func NewSession(opt Options) *Session {
	return &Session{
		Opt:     opt,
		obsBase: obs.Default().Snapshot(),
		ab:      map[string]ABResult{},
		tb:      map[testbedKey]*TestbedResult{},
	}
}

// fleetRun returns the 800-network synthesized fleet of the §3 study.
func (s *Session) fleetRun() *fleet.Fleet {
	if s.fleet == nil {
		s.Runs.Fleet++
		s.fleet = fleet.Generate(fleet.Options{Seed: s.Opt.Seed, Networks: 800})
	}
	return s.fleet
}

// AB is one deployment A/B (§4.6): the same seeded scenario simulated once
// under ReservedCA and once under TurboCA.
type AB struct {
	Build      func(seed int64) *topo.Scenario
	Seed       int64 // scenario seed
	EngineSeed int64
	Dur        sim.Time
	// Tune, when set, adjusts each arm's backend options (cmd/turboca's
	// workers, fault profile and RF traces). It is called once per arm, so
	// mutable state it installs is private to that arm.
	Tune func(*backend.Options)
}

// ABArm is what one algorithm's run measured. The first day is skipped for
// stabilisation, as §4.6.1 skips the first week: DailyTB and PeakTB have
// one entry per later day, and Latency and Efficiency pool those days.
type ABArm struct {
	Alg        backend.Algorithm
	DailyTB    *stats.Sample
	PeakTB     *stats.Sample // each day's best hour
	Latency    *stats.Sample // TCP latency, ms
	Efficiency *stats.Sample // bit-rate efficiency
	Switches   int
	Control    backend.ControlStats

	// The end state: usage over the second half of the run, and the
	// on-air 5 GHz plan scored through turboca.NetP — the one lens both
	// algorithms share, since a ReservedCA backend carries no
	// turboca.Service — with the share of APs it leaves at 80 MHz.
	LateTB float64
	LnNetP float64
	Pct80  float64
}

// ABResult is both arms of an AB.
type ABResult struct{ Reserved, Turbo ABArm }

// RunAB simulates both arms of ab.
func RunAB(ab AB) ABResult {
	arm := func(alg backend.Algorithm) ABArm {
		opt := backend.DefaultOptions(alg)
		if ab.Tune != nil {
			ab.Tune(&opt)
		}
		sc := ab.Build(ab.Seed)
		engine := sim.NewEngine(ab.EngineSeed)
		be := backend.New(opt, sc, engine)
		be.Start()
		engine.RunUntil(ab.Dur)

		a := ABArm{Alg: alg, Switches: be.Switches(), Control: be.Control(),
			DailyTB: stats.NewSample(0), PeakTB: stats.NewSample(0)}
		usage := be.DB.Table("usage")
		for from := sim.Day; from+sim.Day <= ab.Dur; from += sim.Day {
			a.DailyTB.Add(usage.SumField("bytes", from, from+sim.Day) / 1e12)
			best := 0.0
			for h := sim.Time(0); h < sim.Day; h += sim.Hour {
				best = max(best, usage.SumField("bytes", from+h, from+h+sim.Hour)/1e12)
			}
			a.PeakTB.Add(best)
		}
		a.Latency = be.DB.Table("tcp_latency").AggregateField("ms", sim.Day, ab.Dur)
		a.Efficiency = be.DB.Table("bitrate_eff").AggregateField("eff", sim.Day, ab.Dur)

		a.LateTB = usage.SumField("bytes", ab.Dur/2, ab.Dur) / 1e12
		plan := turboca.Plan{}
		n80 := 0
		for _, ap := range sc.APs {
			if ap.Channel.Width.Valid() {
				plan[ap.ID] = turboca.Assignment{Channel: ap.Channel}
			}
			if ap.Channel.Width >= spectrum.W80 {
				n80++
			}
		}
		a.LnNetP = turboca.NetP(be.Opt.Planner, be.PlannerInput(spectrum.Band5), plan)
		a.Pct80 = 100 * float64(n80) / float64(len(sc.APs))
		return a
	}
	return ABResult{Reserved: arm(backend.AlgReservedCA), Turbo: arm(backend.AlgTurboCA)}
}

// abRun returns the named deployment's A/B at the session's seed.
func (s *Session) abRun(name string, build func(int64) *topo.Scenario, dur sim.Time) ABResult {
	r, ok := s.ab[name]
	if !ok {
		s.Runs.AB++
		r = RunAB(AB{Build: build, Seed: s.Opt.Seed, EngineSeed: 1, Dur: dur})
		s.ab[name] = r
	}
	return r
}

// museum is the MNet A/B that Table 2 and Figs 8–9 share.
func (s *Session) museum() ABResult {
	return s.abRun("museum", topo.Museum, s.Opt.abDur())
}

// abDur is the length of the paper-deployment A/Bs; the first day of it
// is stabilisation.
func (o Options) abDur() sim.Time {
	if o.Quick {
		return 2 * sim.Day
	}
	return 3 * sim.Day
}

// TestbedResult is what the figures read off one testbed run. Per-client
// slices are in client order (with two APs, AP 0's clients first).
type TestbedResult struct {
	TotalMbps float64   // aggregate download goodput
	DownMbps  []float64 // per-client download goodput
	UpMbps    float64   // aggregate upload goodput (uplink traffic mixes)
	Agg       float64   // mean A-MPDU size at AP 0
	AggClient []float64 // per-client mean A-MPDU size
	Lat80211  float64   // mean ms, AP wire -> 802.11 ACK
	LatTCP    float64   // mean ms, AP forward -> TCP ACK seen
	Cwnd      []int     // per TCP flow: the sender's final cwnd, segments
	CwndMax   []int     // per TCP flow: the largest cwnd sampled

	Agents    []fastack.Stats // per AP; zero for a Baseline AP
	Faults    testbed.FaultCounters
	Undrained int // bypassed flows still carrying fast-ACK debt
}

type testbedKey struct {
	mode    testbed.Mode
	clients int
	variant string
}

// Testbed returns the §5.6 lab run in its figure configuration —
// testbed.DefaultOptions at the session's seed and testbed duration, 1.5 %
// bad hints (§5.7), one AP in mode serving clients stations — performing
// it on first use. variant names what tune changes (traffic mix, a second
// AP, another seed, an ablation switch); "" is the plain run and takes a
// nil tune.
func (s *Session) Testbed(mode testbed.Mode, clients int, variant string, tune func(*testbed.Options)) *TestbedResult {
	key := testbedKey{mode, clients, variant}
	if r, ok := s.tb[key]; ok {
		return r
	}
	s.Runs.Testbed++
	o := testbed.DefaultOptions()
	o.Seed = s.Opt.Seed
	o.APModes = []testbed.Mode{mode}
	o.ClientsPerAP = clients
	o.BadHintRate = 0.015
	if tune != nil {
		tune(&o)
	}
	o.Capture, s.Capture = s.Capture, nil
	dur := s.Opt.testbedDur()
	tb := testbed.New(o)
	tb.Run(dur)
	if o.DataFaults != nil {
		// A quiet tail so bypassed flows can settle their fast-ACK debt
		// before the counters are read.
		tb.Engine.RunUntil(dur + 500*sim.Millisecond)
	}

	r := &TestbedResult{
		Agg:       tb.AggAP[0].Mean(),
		Lat80211:  tb.Lat80211.Mean(),
		LatTCP:    tb.LatTCP.Mean(),
		Agents:    tb.AgentStatsPerAP(),
		Faults:    tb.Faults,
		Undrained: tb.UndrainedBypassedFlows(),
	}
	for _, c := range tb.Clients {
		g := c.GoodputMbps(dur)
		r.DownMbps = append(r.DownMbps, g)
		r.TotalMbps += g
		r.UpMbps += c.UplinkGoodputMbps(dur)
		r.AggClient = append(r.AggClient, tb.AggPerClient[c.Index].Mean())
	}
	for _, snd := range tb.Senders {
		if snd.TCP == nil {
			continue
		}
		peak := 0
		for _, cs := range snd.CwndTrace {
			peak = max(peak, cs.Segments)
		}
		r.Cwnd = append(r.Cwnd, snd.TCP.CwndSegments())
		r.CwndMax = append(r.CwndMax, peak)
	}
	s.tb[key] = r
	return r
}

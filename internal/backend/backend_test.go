package backend

import (
	"slices"
	"testing"

	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

func office(t *testing.T) *topo.Scenario {
	t.Helper()
	return topo.Office(11)
}

func TestPollPopulatesTables(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgNone), sc, engine)
	b.Start()
	engine.RunUntil(sim.Hour)
	for _, table := range []string{"usage", "utilization", "tcp_latency", "bitrate_eff"} {
		tb := b.DB.Table(table)
		if len(tb.Keys()) != len(sc.APs) {
			t.Fatalf("%s covers %d keys, want %d", table, len(tb.Keys()), len(sc.APs))
		}
	}
	// 12 polls in an hour at the 5-minute cadence.
	if got := b.DB.Table("usage").Len(sc.APs[0].Name); got != 12 {
		t.Fatalf("usage rows = %d, want 12", got)
	}
}

func TestPlannerInputFidelity(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	engine.RunUntil(13 * sim.Hour) // peak: clients associated

	in := b.PlannerInput(spectrum.Band5)
	if len(in.APs) != len(sc.APs) {
		t.Fatalf("input covers %d APs", len(in.APs))
	}
	for i, v := range in.APs {
		ap := sc.APs[i]
		if v.ID != ap.ID || v.Current != ap.Channel {
			t.Fatalf("AP %d mismatch", i)
		}
		if !v.HasClients {
			t.Fatalf("AP %d without clients at peak", i)
		}
		if v.Load <= 0 {
			t.Fatalf("AP %d load %f at peak", i, v.Load)
		}
		sum := 0.0
		for _, s := range v.WidthLoad {
			sum += s
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("AP %d width load sums to %f", i, sum)
		}
		if v.CSAFraction < 0 || v.CSAFraction > 1 {
			t.Fatalf("CSA fraction %f", v.CSAFraction)
		}
	}
	// 2.4 GHz input is width-capped.
	in24 := b.PlannerInput(spectrum.Band2G4)
	if in24.MaxWidth != spectrum.W20 {
		t.Fatalf("2.4 GHz max width %v", in24.MaxWidth)
	}

	// Off-hours: clients dissociate (gates DFS, §4.5.2).
	engine.RunUntil(27 * sim.Hour) // 3 am next day
	inNight := b.PlannerInput(spectrum.Band5)
	nightClients := 0
	for _, v := range inNight.APs {
		if v.HasClients {
			nightClients++
		}
	}
	if nightClients > len(inNight.APs)/4 {
		t.Fatalf("%d/%d APs still have clients at 3 am", nightClients, len(inNight.APs))
	}
}

// TestBackendInputsNeedNoRepair holds the input template's claim (see
// Backend.inputTmpl) for every topology kind: Sanitize only ever writes an
// invalid entry, and nothing a snapshot shares contains one. A snapshot on
// either band needs zero repairs before the first poll, after it, and under
// an active quarantine with trace noise; and after two full planning
// invocations the scenario's external-utilization rows, aliased by every
// one of those snapshots, hold exactly what they held before the first.
func TestBackendInputsNeedNoRepair(t *testing.T) {
	kinds := []struct {
		name string
		gen  func(int64) *topo.Scenario
	}{
		{"office", topo.Office}, {"school", topo.School}, {"hotel", topo.Hotel}, {"museum", topo.Museum},
		{"mdu", topo.MDU}, {"campus", topo.Campus}, {"stadium", topo.Stadium},
	}
	bands := []spectrum.Band{spectrum.Band5, spectrum.Band2G4}
	for _, k := range kinds {
		sc := k.gen(3)
		var before [][]float64
		for _, ap := range sc.APs {
			for _, band := range bands {
				before = append(before, append([]float64(nil), sc.ExternalRow(ap, band)...))
			}
		}

		engine := sim.NewEngine(3)
		opt := DefaultOptions(AlgTurboCA)
		opt.RF = rfenv.NewEnv(
			rfenv.NewTraceSet(3, rfenv.Default5GHzChannels(), rfenv.DefaultTraceOptions()),
			[]rfenv.Storm{{At: 2*sim.Hour + 45*sim.Minute, LowSub: 52, HighSub: 64}})
		b := New(opt, sc, engine)
		b.StartManaged()
		for _, at := range []sim.Time{0, 15 * sim.Minute, 3 * sim.Hour} {
			engine.RunUntil(at)
			for _, band := range bands {
				in := b.PlannerInput(band)
				if n := in.Sanitize(); n != 0 {
					t.Fatalf("%s %v at %v: a backend-built input needed %d repairs", k.name, band, at, n)
				}
			}
		}
		if b.PlannerInput(spectrum.Band5).Blocked == 0 {
			t.Fatalf("%s: no quarantine active at 3h; the storm case is not being checked", k.name)
		}
		b.Service.RunOnce([]int{1, 0})
		b.Service.RunOnce([]int{0})
		if n := b.Service.SanitizedTotal; n != 0 {
			t.Fatalf("%s: planning sanitized %d entries of backend-built inputs", k.name, n)
		}
		for i, ap := range sc.APs {
			for j, band := range bands {
				if got := sc.ExternalRow(ap, band); !slices.Equal(got, before[2*i+j]) {
					t.Fatalf("%s AP %d %v: external row %v, was %v before the first snapshot", k.name, ap.ID, band, got, before[2*i+j])
				}
			}
		}
	}
}

func TestApplyPlanSwitchesChannels(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	ch155, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	plan := turboca.Plan{sc.APs[0].ID: {Channel: ch155}}
	b.applyPlan(spectrum.Band5, plan, turboca.Result{})
	if sc.APs[0].Channel != ch155 {
		t.Fatal("plan not applied")
	}
	if b.Switches() != 1 {
		t.Fatalf("switches = %d", b.Switches())
	}
	// Re-applying the same plan is a no-op.
	b.applyPlan(spectrum.Band5, plan, turboca.Result{})
	if b.Switches() != 1 {
		t.Fatal("idempotent apply counted twice")
	}
}

func TestTurboCAServiceImprovesNetwork(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	before := map[int]spectrum.Channel{}
	for _, ap := range sc.APs {
		before[ap.ID] = ap.Channel
	}
	b.Start()
	engine.RunUntil(2 * sim.Hour)
	if b.Switches() == 0 {
		t.Fatal("TurboCA never switched anything on an all-same-channel start")
	}
	distinct := map[int]bool{}
	for _, ap := range sc.APs {
		distinct[ap.Channel.Number] = true
	}
	if len(distinct) < 3 {
		t.Fatalf("only %d distinct channels after planning", len(distinct))
	}
}

func TestReservedCARunsOnSchedule(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgReservedCA), sc, engine)
	b.Start()
	engine.RunUntil(6 * sim.Hour) // one 5-hour tick
	if b.Switches() == 0 {
		t.Fatal("ReservedCA made no changes")
	}
	// Fixed 20 MHz width on 5 GHz.
	for _, ap := range sc.APs {
		if ap.Channel.Width != spectrum.W20 {
			t.Fatalf("ReservedCA width %v", ap.Channel.Width)
		}
	}
}

func TestModelRationing(t *testing.T) {
	sc := office(t)
	m := NewModel(sc, 1)
	perf := m.Evaluate(13 * sim.Hour)
	for id, p := range perf {
		if p.ServedMbps > p.DemandMbps+1e-9 {
			t.Fatalf("AP %d served more than demand", id)
		}
		if p.Utilization < 0 || p.Utilization > 1 {
			t.Fatalf("utilization %f", p.Utilization)
		}
		if p.AirtimeShare < 0 || p.AirtimeShare > 1.000001 {
			t.Fatalf("share %f", p.AirtimeShare)
		}
	}
}

func TestModelMemoization(t *testing.T) {
	sc := office(t)
	m := NewModel(sc, 1)
	a := slices.Clone(m.Evaluate(sim.Hour))
	if len(a) != len(sc.APs) {
		t.Fatalf("%d rows for %d APs", len(a), len(sc.APs))
	}
	// Same time, no invalidation: identical (memoized) results.
	if !slices.Equal(a, m.Evaluate(sim.Hour)) {
		t.Fatal("memoized evaluation differs")
	}
	// Channel change invalidates: the AP that left the shared default
	// channel for a clean one must read differently, in the same row.
	ch155, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	sc.APs[0].Channel = ch155
	m.Invalidate()
	if b := m.Evaluate(sim.Hour); b[0].Contention != 0 || a[0].Contention == 0 {
		t.Fatalf("contention %v before the move, %v after: not recomputed", a[0].Contention, b[0].Contention)
	}
}

func TestUplinkCapScalesServed(t *testing.T) {
	sc := office(t)
	sc.UplinkMbps = 100 // choke the WAN
	m := NewModel(sc, 1)
	perf := m.Evaluate(13 * sim.Hour)
	total := 0.0
	for _, p := range perf {
		total += p.ServedMbps
	}
	if total > 100.0001 {
		t.Fatalf("uplink cap violated: %f", total)
	}
}

func TestLatencySamplesHeavyTail(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(1)
	b := New(DefaultOptions(AlgNone), sc, engine)
	p := APPerf{Utilization: 0.5}
	n, over400 := 20000, 0
	for i := 0; i < n; i++ {
		if b.Model.SampleTCPLatency(p, b.rng) > 400 {
			over400++
		}
	}
	frac := float64(over400) / float64(n)
	// §4.6.2: a small algorithm-independent tail above 400 ms.
	if frac < 0.01 || frac > 0.10 {
		t.Fatalf("tail fraction %f", frac)
	}
}

func TestBitrateEffDegradesWithUtilization(t *testing.T) {
	sc := office(t)
	m := NewModel(sc, 1)
	rngA := sim.NewEngine(9).Rand()
	quiet, busy := 0.0, 0.0
	for i := 0; i < 5000; i++ {
		quiet += m.SampleBitrateEff(APPerf{Utilization: 0.1}, rngA)
		busy += m.SampleBitrateEff(APPerf{Utilization: 0.95}, rngA)
	}
	if busy >= quiet {
		t.Fatal("efficiency does not degrade with utilization")
	}
}

func TestRadarEventsForceFallback(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(2)
	opt := DefaultOptions(AlgTurboCA)
	opt.RadarEventsPerDay = 200 // aggressive so a short sim sees hits
	b := New(opt, sc, engine)
	b.Start()
	// Plan at night so DFS channels get used, then run with radar.
	engine.RunUntil(6 * sim.Hour)
	hadDFS := 0
	for _, ap := range sc.APs {
		if ap.Channel.DFS {
			hadDFS++
		}
	}
	if hadDFS == 0 {
		t.Skip("no DFS assignments this seed")
	}
	engine.RunUntil(30 * sim.Hour)
	if b.RadarEvents() == 0 {
		t.Fatal("no radar events at 200/day over a day")
	}
	// Every radar hit must have landed the AP on a non-DFS channel at
	// that moment (the planner may later move it back legitimately).
	for _, ap := range sc.APs {
		if ap.Channel.Width == 0 {
			t.Fatalf("AP %d lost its channel", ap.ID)
		}
	}
}

func TestFallbacksTracked(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(3)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	b.Start()
	engine.RunUntil(4 * sim.Hour) // includes the nightly-ish deep passes
	dfsAssigned := 0
	for _, ap := range sc.APs {
		if !ap.Channel.DFS {
			continue
		}
		dfsAssigned++
		fb := b.rows[ap.ID].fallback
		if fb == (spectrum.Channel{}) {
			t.Fatalf("AP %d on DFS %v without tracked fallback", ap.ID, ap.Channel)
		}
		if fb.DFS {
			t.Fatalf("AP %d fallback %v is itself DFS", ap.ID, fb)
		}
	}
	if dfsAssigned == 0 {
		t.Skip("no DFS assignments this seed")
	}
}

func TestDisruptionAccounting(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(4)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	b.Start()
	// Run through business hours so switches hit associated clients.
	engine.RunUntil(16 * sim.Hour)
	if b.Switches() == 0 {
		t.Fatal("no switches")
	}
	if b.DisruptionSeconds() <= 0 {
		t.Fatal("switches charged no disruption during business hours")
	}
	// The disruption table holds per-switch rows.
	if len(b.DB.Table("disruption").Keys()) == 0 {
		t.Fatal("disruption table empty")
	}
	// Night switches on idle APs are (nearly) free.
	sc2 := topo.Office(12)
	engine2 := sim.NewEngine(4)
	b2 := New(DefaultOptions(AlgTurboCA), sc2, engine2)
	night := b2.disruptionSeconds(sc2.APs[0], 3*sim.Hour)
	day := b2.disruptionSeconds(sc2.APs[0], 13*sim.Hour)
	if night >= day {
		t.Fatalf("night disruption %f >= day %f", night, day)
	}
}

func TestNetworkReport(t *testing.T) {
	sc := office(t)
	engine := sim.NewEngine(5)
	b := New(DefaultOptions(AlgTurboCA), sc, engine)
	b.Start()
	engine.RunUntil(14 * sim.Hour)
	r := b.Report(0, 14*sim.Hour)
	if r.TotalUsageTB <= 0 {
		t.Fatal("no usage in report")
	}
	if len(r.BusiestAPs) != ReportTopN {
		t.Fatalf("busiest list has %d entries", len(r.BusiestAPs))
	}
	// Busiest list is sorted descending.
	for i := 1; i < len(r.BusiestAPs); i++ {
		if r.BusiestAPs[i].UsageGB > r.BusiestAPs[i-1].UsageGB {
			t.Fatal("busiest APs not sorted")
		}
	}
	total := 0
	for _, n := range r.Widths {
		total += n
	}
	if total != len(sc.APs) {
		t.Fatalf("width histogram covers %d APs", total)
	}
	if r.TCPLatencyP90 < r.TCPLatencyP50 {
		t.Fatal("latency percentiles inverted")
	}
	if r.String() == "" {
		t.Fatal("empty rendering")
	}
}

// TestDeploymentMetrics: after a 2 h TurboCA run the telemetry store holds
// usage, latency, efficiency and utilization samples, the Report API reads
// them, and the engine resumes from where the run stopped.
func TestDeploymentMetrics(t *testing.T) {
	engine := sim.NewEngine(3)
	b := New(DefaultOptions(AlgTurboCA), topo.Office(3), engine)
	b.Start()
	engine.RunUntil(2 * sim.Hour)
	if r := b.Report(0, 2*sim.Hour); r.TotalUsageTB <= 0 || r.TCPLatencyP50 <= 0 || r.BitrateEffP50 <= 0 {
		t.Fatalf("report after 2 h: usage %f TB, latency p50 %f ms, efficiency p50 %f", r.TotalUsageTB, r.TCPLatencyP50, r.BitrateEffP50)
	}
	for table, field := range map[string]string{"tcp_latency": "ms", "bitrate_eff": "eff", "utilization": "util"} {
		if b.DB.Table(table).AggregateField(field, 0, 2*sim.Hour).N() == 0 {
			t.Fatalf("no %s samples", table)
		}
	}
	engine.RunUntil(engine.Now() + sim.Hour)
	if engine.Now() != 3*sim.Hour {
		t.Fatalf("continued run landed at %v", engine.Now())
	}
}

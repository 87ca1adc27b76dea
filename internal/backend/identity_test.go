package backend

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// refEvaluate is Model.Evaluate as it was while its tables were maps keyed
// by AP ID — three of them made per call — without the memo.
func refEvaluate(m *Model, t sim.Time) map[int]APPerf {
	sc := m.sc
	perf := make(map[int]APPerf, len(sc.APs))
	demand := make(map[int]float64, len(sc.APs))
	for _, ap := range sc.APs {
		demand[ap.ID] = sc.DemandAt(ap, t)
	}
	airDemand := make(map[int]float64, len(sc.APs))
	for _, ap := range sc.APs {
		cap5 := m.capByWidth[ap.Channel.Width]
		airDemand[ap.ID] = 0.02 + demand[ap.ID]/math.Max(cap5, 1)
	}
	totalServed := 0.0
	for _, ap := range sc.APs {
		cap5 := m.capByWidth[ap.Channel.Width]
		ext := m.extUtilOn(ap, ap.Channel)
		contention := 0.0
		for _, n := range sc.NeighborsOf(ap) {
			if n.AP.Channel.Overlaps(ap.Channel) {
				contention += airDemand[n.AP.ID]
			}
		}
		total := ext + contention + airDemand[ap.ID]
		scale := 1.0
		if total > 1 {
			scale = 1 / total
		}
		served := demand[ap.ID] * scale
		perf[ap.ID] = APPerf{
			DemandMbps:   demand[ap.ID],
			AirtimeShare: airDemand[ap.ID] * scale,
			CapacityMbps: cap5,
			ServedMbps:   served,
			Utilization:  clamp01(total),
			Contention:   contention,
			ExtUtil:      ext,
		}
		totalServed += served
	}
	if sc.UplinkMbps > 0 && totalServed > sc.UplinkMbps {
		scale := sc.UplinkMbps / totalServed
		for id, p := range perf {
			p.ServedMbps *= scale
			perf[id] = p
		}
	}
	return perf
}

// TestEvaluateMatchesReference holds the row-based Evaluate, which writes
// over its previous result, to the map-based one field for field and bit
// for bit: an office, a museum and UNet (the campus, whose WAN cap must
// bite), 100 seeds each, four hours of the day with a third of the APs
// rechannelled — widths and DFS included — halfway through.
func TestEvaluateMatchesReference(t *testing.T) {
	kinds := []struct {
		name  string
		build func(int64) *topo.Scenario
	}{{"office", topo.Office}, {"museum", topo.Museum}, {"unet", topo.Campus}}
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	all := spectrum.AllChannels(spectrum.Band5, spectrum.W160, true)
	for _, k := range kinds {
		capped := 0
		for seed := int64(0); seed < seeds; seed++ {
			sc := k.build(seed)
			m := NewModel(sc, seed)
			r := rand.New(rand.NewSource(seed))
			for step, hour := range []sim.Time{3, 10, 13, 21} {
				if step == 2 {
					for _, ap := range sc.APs {
						if r.Intn(3) == 0 {
							ap.Channel = all[r.Intn(len(all))]
						}
					}
					m.Invalidate()
				}
				at := hour*sim.Hour + sim.Time(r.Intn(60))*sim.Minute
				want := refEvaluate(m, at)
				got := m.Evaluate(at)
				if len(got) != len(sc.APs) {
					t.Fatalf("%s seed %d: %d rows for %d APs", k.name, seed, len(got), len(sc.APs))
				}
				served := 0.0
				for i, ap := range sc.APs {
					g, w := got[i], want[ap.ID]
					for f, pair := range [][2]float64{
						{g.DemandMbps, w.DemandMbps}, {g.AirtimeShare, w.AirtimeShare},
						{g.CapacityMbps, w.CapacityMbps}, {g.ServedMbps, w.ServedMbps},
						{g.Utilization, w.Utilization}, {g.Contention, w.Contention}, {g.ExtUtil, w.ExtUtil},
					} {
						if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
							t.Fatalf("%s seed %d %v AP %d field %d: %v, reference %v", k.name, seed, at, i, f, pair[0], pair[1])
						}
					}
					served += w.ServedMbps
				}
				if sc.UplinkMbps > 0 && math.Abs(served-sc.UplinkMbps) < 1e-6*sc.UplinkMbps {
					capped++ // scaled down to exactly the WAN's capacity
				}
			}
		}
		if k.name == "unet" && capped == 0 {
			t.Fatalf("the WAN cap never bit on %s: the uplink scale went unchecked", k.name)
		}
	}
}

// TestTelemetryHistoryOffSameStreams is Options.DisableTelemetryHistory's
// promise: with the history tables off every rng draw still happens, so
// two backends on one seed — polls lost, delayed and corrupted, APs
// offline, radar striking — end twelve hours with the same telemetry, the
// same network and the same place in b.rng. The digest is also the value
// this run had while reports, intents and fallbacks were maps keyed by AP ID.
func TestTelemetryHistoryOffSameStreams(t *testing.T) {
	run := func(historyOff bool) *Backend {
		opt := DefaultOptions(AlgTurboCA)
		opt.Seed = 7
		opt.Faults = campusChaosProfile(7)
		opt.RadarEventsPerDay = 6
		opt.DisableTelemetryHistory = historyOff
		engine := sim.NewEngine(7)
		b := New(opt, topo.Office(11), engine)
		b.Start()
		engine.RunUntil(12 * sim.Hour)
		return b
	}
	on, off := run(false), run(true)
	if rows := off.DB.Table("tcp_latency").Keys(); len(rows) != 0 {
		t.Fatalf("history off still wrote latency rows for %d APs", len(rows))
	}
	if rows := on.DB.Table("tcp_latency").Keys(); len(rows) != len(on.Scenario.APs) {
		t.Fatalf("history on wrote latency rows for %d of %d APs", len(rows), len(on.Scenario.APs))
	}
	const atHead = 0x3e5bb45085e57696
	if on.ReportsDigest() != atHead || off.ReportsDigest() != atHead {
		t.Fatalf("ReportsDigest %#x with history, %#x without, want %#x", on.ReportsDigest(), off.ReportsDigest(), uint64(atHead))
	}
	if on.Switches() != off.Switches() || on.Control() != off.Control() {
		t.Fatalf("history changed the run: %d switches %+v\nvs %d switches %+v", on.Switches(), on.Control(), off.Switches(), off.Control())
	}
	if on.Control().PollsDelayed == 0 || on.Control().PollsRejected == 0 || on.RadarEvents() == 0 {
		t.Fatalf("the run never delayed or rejected a poll or struck radar: %+v, %d radar", on.Control(), on.RadarEvents())
	}
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		if a, b := on.Service.LastLogNetP[band], off.Service.LastLogNetP[band]; a != b {
			t.Fatalf("LastLogNetP[%v] %v with history, %v without", band, a, b)
		}
	}
	for i, ap := range on.Scenario.APs {
		if other := off.Scenario.APs[i]; ap.Channel != other.Channel || ap.Channel24 != other.Channel24 {
			t.Fatalf("AP %d on %v/%v with history, %v/%v without", i, ap.Channel, ap.Channel24, other.Channel, other.Channel24)
		}
	}
	if a, b := on.rng.Int63(), off.rng.Int63(); a != b {
		t.Fatalf("b.rng diverged: next draw %d with history, %d without", a, b)
	}
}

package backend

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// refCapByWidth is the per-width capacity map the model kept before its
// array by width slot.
func refCapByWidth() map[spectrum.Width]float64 {
	out := map[spectrum.Width]float64{}
	for _, w := range spectrum.Widths {
		r := phy.Rate{MCS: 7, NSS: 2, Width: w, GI: phy.SGI}
		out[w] = phy.EffectiveMACThroughputMbps(r, 24, 1400)
	}
	return out
}

// refEvaluate is Model.Evaluate as it was while its tables were maps keyed
// by AP ID — three of them made per call — and overlap was frequency
// arithmetic, without the memo.
func refEvaluate(m *Model, t sim.Time) map[int]APPerf {
	sc := m.sc
	capByWidth := refCapByWidth()
	perf := make(map[int]APPerf, len(sc.APs))
	demand := make(map[int]float64, len(sc.APs))
	for _, ap := range sc.APs {
		demand[ap.ID] = sc.DemandAt(ap, t)
	}
	airDemand := make(map[int]float64, len(sc.APs))
	for _, ap := range sc.APs {
		cap5 := capByWidth[ap.Channel.Width]
		airDemand[ap.ID] = 0.02 + demand[ap.ID]/math.Max(cap5, 1)
	}
	totalServed := 0.0
	for _, ap := range sc.APs {
		cap5 := capByWidth[ap.Channel.Width]
		ext := m.extUtilOn(ap, ap.Channel)
		contention := 0.0
		for _, j := range sc.NeighborsOf(ap) {
			if n := sc.APs[j]; n.Channel.Overlaps(ap.Channel) {
				contention += airDemand[n.ID]
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
// rechannelled — widths and DFS included — halfway through. The new
// channels include 2.4 GHz ones (another band's table IDs) and channels
// off the table (ch34 and ch2 at 20 MHz, ch36 at no width), which keep
// the frequency-arithmetic overlap test.
func TestEvaluateMatchesReference(t *testing.T) {
	kinds := []struct {
		name  string
		build func(int64) *topo.Scenario
	}{{"office", topo.Office}, {"museum", topo.Museum}, {"unet", topo.Campus}}
	seeds := int64(100)
	if testing.Short() {
		seeds = 10
	}
	all := append(spectrum.AllChannels(spectrum.Band5, spectrum.W160, true),
		spectrum.Channel{Band: spectrum.Band2G4, Number: 1, Width: spectrum.W20},
		spectrum.Channel{Band: spectrum.Band2G4, Number: 6, Width: spectrum.W20},
		spectrum.Channel{Band: spectrum.Band2G4, Number: 2, Width: spectrum.W20},
		spectrum.Channel{Band: spectrum.Band5, Number: 34, Width: spectrum.W20},
		spectrum.Channel{Band: spectrum.Band5, Number: 36})
	for _, k := range kinds {
		capped := 0
		for seed := int64(0); seed < seeds; seed++ {
			sc := k.build(seed)
			m := NewModel(sc)
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

// TestTemplatesAliasNeighborRows: both bands' input templates hold the
// scenario's own neighbor rows — the same backing array, no copy — and so
// does every snapshot copied from them.
func TestTemplatesAliasNeighborRows(t *testing.T) {
	sc := topo.Office(11)
	b := New(DefaultOptions(AlgTurboCA), sc, sim.NewEngine(11))
	t5, t24 := b.inputTemplate(spectrum.Band5, spectrum.W80), b.inputTemplate(spectrum.Band2G4, spectrum.W20)
	in := b.PlannerInput(spectrum.Band5)
	edges := 0
	for i, ap := range sc.APs {
		row := sc.NeighborsOf(ap)
		if len(row) == 0 {
			continue
		}
		edges += len(row)
		for _, ns := range [][]int{t5[i].Neighbors, t24[i].Neighbors, in.APs[i].Neighbors} {
			if len(ns) != len(row) || &ns[0] != &row[0] {
				t.Fatalf("AP %d: neighbors %v are not the scenario's row %v", i, ns, row)
			}
		}
		if t5[i].WidthLoad != ap.Mix.WidthLoad || t24[i].WidthLoad != ap.Mix.WidthLoad {
			t.Fatalf("AP %d: template width mix %v / %v, AP's %v", i, t5[i].WidthLoad, t24[i].WidthLoad, ap.Mix.WidthLoad)
		}
	}
	if edges == 0 {
		t.Fatal("no AP hears another; nothing was checked")
	}
}

// TestTelemetryHistoryOffSameStreams is Options.DisableTelemetryHistory's
// promise: with the history off every rng draw still happens, so
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
	if off.hist != nil {
		t.Fatal("history off still keeps a history")
	}
	for i := range on.Scenario.APs {
		if len(on.hist.aps[i].lat) == 0 {
			t.Fatalf("history on kept no latency samples for AP %d", i)
		}
	}
	const atHead = 0x8b58e61cf8827370
	if reportsDigest(on) != atHead || reportsDigest(off) != atHead {
		t.Fatalf("reports digest %#x with history, %#x without, want %#x", reportsDigest(on), reportsDigest(off), uint64(atHead))
	}
	if on.Switches() != off.Switches() || on.Control() != off.Control() {
		t.Fatalf("history changed the run: %d switches %+v\nvs %d switches %+v", on.Switches(), on.Control(), off.Switches(), off.Control())
	}
	if on.Control().PollsDelayed == 0 || on.Control().PollsRejected == 0 || on.radarHit == 0 {
		t.Fatalf("the run never delayed or rejected a poll or struck radar: %+v, %d radar", on.Control(), on.radarHit)
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

// reportsDigest is an FNV-1a content hash of the last-known-good report
// rows, folded in Scenario.APs order with each AP's ID: two backends with
// equal digests have the same planner-visible telemetry.
func reportsDigest(b *Backend) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	for i, ap := range b.Scenario.APs {
		if !b.rows[i].reported {
			continue
		}
		rep := &b.rows[i].report
		mix(uint64(ap.ID))
		mix(uint64(rep.At))
		mix(math.Float64bits(rep.Demand))
		mix(math.Float64bits(rep.Utilization))
		if rep.HasClients {
			mix(1)
		} else {
			mix(0)
		}
	}
	return h
}

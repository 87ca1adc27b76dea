package backend

import (
	"math"
	"math/bits"
	"math/rand"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// APPerf is the modeled state of one AP at an evaluation instant.
type APPerf struct {
	DemandMbps float64
	// AirtimeShare is the fraction of airtime the AP can win on its
	// channel after external interference and co-channel neighbors.
	AirtimeShare float64
	// CapacityMbps is the AP's effective MAC throughput at full airtime.
	CapacityMbps float64
	// ServedMbps = min(demand, capacity*share), then uplink-scaled.
	ServedMbps float64
	// Utilization is the busy fraction the AP's radio observes.
	Utilization float64
	// Contention summarizes co-channel pressure (0 = alone).
	Contention float64
	// ExtUtil is the external (non-network) utilization on the channel.
	ExtUtil float64
}

// Model converts a scenario plus a channel plan into the per-AP
// performance numbers a deployment would measure. It is the analytic
// stand-in for running a packet-level MAC simulation over hundreds of APs
// for simulated weeks, which the planner experiments (Table 2, Figs 8-9)
// require.
type Model struct {
	sc  *topo.Scenario
	rng *rand.Rand

	// Cached per-width effective capacity (Mbps) for a typical client mix.
	capByWidth map[spectrum.Width]float64

	// perf is Evaluate's result, by AP position, memoized for the
	// timestamp lastAt until dirty; demand and airDemand are its scratch.
	lastAt            sim.Time
	perf              []APPerf
	demand, airDemand []float64
	dirty             bool
}

// NewModel builds a model over the scenario.
func NewModel(sc *topo.Scenario, seed int64) *Model {
	m := &Model{
		sc:         sc,
		rng:        sim.NewRNG(seed),
		capByWidth: map[spectrum.Width]float64{},
		perf:       make([]APPerf, len(sc.APs)),
		demand:     make([]float64, len(sc.APs)),
		airDemand:  make([]float64, len(sc.APs)),
		dirty:      true,
	}
	// Effective MAC throughput for a representative mid-cell client
	// (MCS7, 2 streams, the Fig 5 mode) at moderate aggregation.
	for _, w := range spectrum.Widths {
		r := phy.Rate{MCS: 7, NSS: 2, Width: w, GI: phy.SGI}
		m.capByWidth[w] = phy.EffectiveMACThroughputMbps(r, 24, 1400)
	}
	return m
}

// Invalidate drops the memoized evaluation (after a channel change).
func (m *Model) Invalidate() { m.dirty = true }

// Evaluate computes APPerf for every AP at time t, in Scenario.APs order
// (an AP's ID is its position). Co-channel contention is demand-weighted:
// a neighbor that overlaps any 20 MHz sub-channel of the AP's assignment
// consumes a share of its airtime proportional to the neighbor's own
// offered load (CSMA sharing, §4.1.2). The result is the model's own row
// and is valid until the next Evaluate, which overwrites it.
func (m *Model) Evaluate(t sim.Time) []APPerf {
	if !m.dirty && t == m.lastAt {
		return m.perf
	}
	sc := m.sc
	perf, demand, airDemand := m.perf, m.demand, m.airDemand

	// Pass 1: demand and normalized load per AP.
	for i, ap := range sc.APs {
		demand[i] = sc.DemandAt(ap, t)
	}

	// Pass 2: per-AP airtime demand (offered load as a fraction of the
	// AP's own channel capacity, beacons included).
	for i, ap := range sc.APs {
		cap5 := m.capByWidth[ap.Channel.Width]
		airDemand[i] = 0.02 + demand[i]/math.Max(cap5, 1)
	}

	// Pass 3: rationing. The airtime demanded on an AP's channel is its
	// own plus every overlapping in-range neighbor's plus external
	// sources. CSMA shares the medium roughly proportionally, so when
	// the total exceeds 1 every participant is scaled back by it.
	totalServed := 0.0
	for i, ap := range sc.APs {
		cap5 := m.capByWidth[ap.Channel.Width]
		ext := m.extUtilOn(ap, ap.Channel)

		contention := 0.0 // neighbors' airtime demand on our channel
		for _, n := range sc.NeighborsOf(ap) {
			if n.AP.Channel.Overlaps(ap.Channel) {
				contention += airDemand[n.AP.ID]
			}
		}
		total := ext + contention + airDemand[i]

		scale := 1.0
		if total > 1 {
			scale = 1 / total
		}
		served := demand[i] * scale
		share := airDemand[i] * scale

		perf[i] = APPerf{
			DemandMbps:   demand[i],
			AirtimeShare: share,
			CapacityMbps: cap5,
			ServedMbps:   served,
			Utilization:  clamp01(total),
			Contention:   contention,
			ExtUtil:      ext,
		}
		totalServed += served
	}

	// Uplink cap: scale every AP's served traffic down proportionally
	// (Table 2: UNet's usage is bounded by the WAN).
	if sc.UplinkMbps > 0 && totalServed > sc.UplinkMbps {
		scale := sc.UplinkMbps / totalServed
		for i := range perf {
			perf[i].ServedMbps *= scale
		}
	}

	m.lastAt = t
	m.dirty = false
	return perf
}

// extUtilOn is the worst external utilization across c's 20 MHz
// sub-channels at ap: the scenario's static row read at the channel's mask
// bits. A channel the US table does not have (malformed state on the air)
// has no mask and keeps the definition over the numbers its width spans.
func (m *Model) extUtilOn(ap *topo.AP, c spectrum.Channel) float64 {
	worst := 0.0
	id, ok := spectrum.IDOf(c)
	if !ok {
		for _, sub := range c.Sub20Numbers() {
			if u := m.sc.ExternalUtilization(ap.Pos, c.Band, sub); u > worst {
				worst = u
			}
		}
		return worst
	}
	if row := m.sc.ExternalRow(ap, c.Band); row != nil {
		for mask := id.Mask(); mask != 0; mask &= mask - 1 {
			if u := row[bits.TrailingZeros64(mask)]; u > worst {
				worst = u
			}
		}
	}
	return worst
}

// SampleTCPLatency draws one TCP latency observation (ms) for an AP: a
// base RTT plus contention-driven queueing (M/M/1-shaped), plus the
// heavy tail the paper attributes to arbitrarily slow clients — which is
// algorithm-independent (§4.6.2: "the distribution of latency over 400ms
// is similar for both").
func (m *Model) SampleTCPLatency(p APPerf, rng *rand.Rand) float64 {
	base := 4 + rng.Float64()*6
	rho := p.Utilization
	if rho > 0.97 {
		rho = 0.97
	}
	queue := 30 * rho / (1 - rho) * (0.5 + rng.Float64())
	lat := base + queue
	if rng.Float64() < 0.04 {
		// Slow/non-responsive client tail.
		lat += 400 + rng.ExpFloat64()*300
	}
	return lat
}

// SampleBitrateEff draws one bit-rate-efficiency observation in (0, 1]:
// the achieved rate divided by the client/AP pair's maximum (§4.6.2). A
// busy channel degrades it — collisions and retries drive Minstrel-style
// controllers toward conservative rates — and external interference
// lowers SINR directly.
func (m *Model) SampleBitrateEff(p APPerf, rng *rand.Rand) float64 {
	rho := p.Utilization
	base := 0.92 - 0.38*rho*rho - 0.12*math.Tanh(p.Contention/3) - 0.20*p.ExtUtil
	eff := base + rng.NormFloat64()*0.07
	return clamp01At(eff, 0.05, 1)
}

// SampleRSSI draws a client RSSI (dBm) from the distance distribution of
// an indoor cell; it does not depend on the channel plan (Fig 7's point:
// RSSI is a poor health metric because it is stable across load).
func (m *Model) SampleRSSI(rng *rand.Rand) float64 {
	d := 2 + rng.ExpFloat64()*9 // most clients within ~10 m
	if d > 40 {
		d = 40
	}
	loss := m.sc.Prop.Shadowed(spectrum.Band5, d, int(d/12), rng)
	return phy.DefaultAPTxPowerDBm + 2*phy.DefaultAntennaGainDBi - loss
}

func clamp01(x float64) float64 { return clamp01At(x, 0, 1) }

func clamp01At(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

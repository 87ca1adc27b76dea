package backend

import (
	"math"
	"time"

	"repro/internal/littletable"
	"repro/internal/sim"
	"repro/internal/topo"
)

// Hardened statistics collection. Each poll tick asks every AP for one
// sample; the fault injector may drop the exchange, delay the report in
// transit, or mangle its metric values. Whatever arrives intact becomes
// the AP's last-known-good report (apRow.report), which is what the planner
// input is built from — a lost poll never erases what we knew, it only
// ages it.

// apReport is the poller's last-known-good snapshot of one AP, stamped
// with the simulation time the sample was taken (not delivered).
type apReport struct {
	At          sim.Time
	Demand      float64 // offered load, Mbps
	Utilization float64
	HasClients  bool
}

// maxSaneDemandMbps rejects wild-scale corrupted demand values: no single
// AP in these scenarios offers anywhere near 100 Gbps.
const maxSaneDemandMbps = 1e5

// polledSample is one AP's report in flight from AP to cloud.
type polledSample struct {
	ap          *topo.AP
	at          sim.Time
	demand      float64
	util        float64
	served      float64
	servedBytes float64
	clients     float64
	hasClients  bool
	latencies   []float64
	effs        []float64
}

// Poll collects one statistics sample per AP into the time-series store:
// usage (bytes served this interval), channel utilization, TCP latency
// samples, and bit-rate efficiency. Faults are applied per AP: offline
// and dropped polls vanish (counters only), corrupted polls mangle the
// metric fields, delayed polls deliver the same sample later via the
// engine. All randomness — the latency/efficiency sample draws — is
// consumed here at poll time, so the b.rng stream advances identically
// whether or not a report is delayed or later rejected.
func (b *Backend) Poll() {
	sp := b.obsReg.Tracer().Begin("backend.poll")
	passStart := time.Now()
	defer func() {
		b.ctl.pollPassUS.Observe(time.Since(passStart).Microseconds())
		sp.End()
	}()
	now := b.Engine.Now()
	perf := b.Model.Evaluate(now)
	interval := b.Opt.PollInterval
	keep := !b.Opt.DisableTelemetryHistory

	for _, ap := range b.Scenario.APs {
		// Supervision abort: a cancelled pass stops polling mid-fleet.
		// The rng stream diverges from an uncancelled run, but cancel only
		// fires under a stuck-pass watchdog, after which the supervising
		// scheduler quarantines this network — its stream is never compared
		// against a healthy twin again.
		if b.cancelled() {
			return
		}
		b.ctl.pollsAttempted.Inc()
		if b.faults.Offline(ap.ID, now) {
			b.ctl.pollsOffline.Inc()
			continue
		}
		if b.faults.DropPoll(ap.ID, now) {
			b.ctl.pollsDropped.Inc()
			continue
		}
		p := perf[ap.ID]
		demand, util := p.DemandMbps, p.Utilization
		if b.faults.CorruptPoll(ap.ID, now) {
			b.ctl.pollsCorrupted.Inc()
			demand = b.faults.CorruptValue(demand, ap.ID, 0, now)
			util = b.faults.CorruptValue(util, ap.ID, 1, now)
		}
		n := 1 + int(p.ServedMbps/20)
		if n > 12 {
			n = 12
		}
		s := polledSample{
			ap: ap, at: now,
			demand: demand, util: util,
			served:      p.ServedMbps,
			servedBytes: p.ServedMbps * 1e6 / 8 * interval.Seconds(),
			clients:     float64(ap.ClientCount()),
			// Clients dissociate off-hours; that is when the deep NBO
			// passes can migrate APs onto DFS channels without stranding
			// anyone through a CAC (§4.5.2).
			hasClients: ap.ClientCount() > 0 && p.DemandMbps > 0.15*ap.BaseDemandMbps,
		}
		// Latency and bit-rate observations are per-transmission in the
		// real system, so busy APs and busy hours contribute
		// proportionally more samples to the fleet distributions
		// (Figs 8-9). Importance-weight by served traffic. The draws
		// consume b.rng whether or not history is kept (the stream must
		// not depend on it); only then are they stored.
		if keep {
			s.latencies, s.effs = make([]float64, n), make([]float64, n)
		}
		for i := 0; i < n; i++ {
			lat, eff := b.Model.SampleTCPLatency(p, b.rng), b.Model.SampleBitrateEff(p, b.rng)
			if keep {
				s.latencies[i], s.effs[i] = lat, eff
			}
		}
		if d, ok := b.faults.DelayPoll(ap.ID, now); ok {
			b.ctl.pollsDelayed.Inc()
			b.ctl.pollDelayUS.Observe(int64(d))
			b.Engine.After(d, func(e *sim.Engine) { b.ingest(s) })
			continue
		}
		b.ingest(s)
	}
}

// ingest validates a delivered report, records it in the time-series
// store, and promotes it to the AP's last-known-good snapshot. Malformed
// reports (NaN, negative, or wild-scale metrics — every shape
// faults.CorruptValue produces) are rejected whole: no rows, no
// last-known-good update, so a corrupted poll behaves exactly like a
// lost one except for the counter.
func (b *Backend) ingest(s polledSample) {
	if !saneMetric(s.demand, maxSaneDemandMbps) || !saneMetric(s.util, 1) {
		b.ctl.pollsRejected.Inc()
		return
	}
	if !b.Opt.DisableTelemetryHistory {
		key := s.ap.Name
		b.DB.Table("usage").Insert(key, s.at, map[string]float64{
			"bytes":   s.servedBytes,
			"demand":  s.demand,
			"served":  s.served,
			"clients": s.clients,
		})
		b.DB.Table("utilization").InsertValue(key, s.at, "util", s.util)
		// The per-transmission samples land as one batch per table: one
		// lock round-trip for the AP's whole sample set instead of one per
		// sample.
		latRows := make([]littletable.Row, len(s.latencies))
		effRows := make([]littletable.Row, len(s.effs))
		for i := range s.latencies {
			latRows[i] = littletable.Row{At: s.at, Fields: map[string]float64{"ms": s.latencies[i]}}
			effRows[i] = littletable.Row{At: s.at, Fields: map[string]float64{"eff": s.effs[i]}}
		}
		b.DB.Table("tcp_latency").InsertBatch(key, latRows)
		b.DB.Table("bitrate_eff").InsertBatch(key, effRows)
	}
	// A delayed report may arrive after a fresher one already landed;
	// last-known-good is ordered by sample time, not delivery time.
	if row := &b.rows[s.ap.ID]; !row.reported || s.at >= row.report.At {
		row.report = apReport{At: s.at, Demand: s.demand, Utilization: s.util, HasClients: s.hasClients}
		row.reported = true
	}
}

// saneMetric accepts finite values in [0, hi].
func saneMetric(v, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= hi
}

// ReportsDigest returns an FNV-1a content hash of the last-known-good
// report rows, folded in Scenario.APs order with each AP's ID. The fleet
// durability layer records it in checkpoints
// as the telemetry-state anchor: two backends with equal digests have
// byte-identical planner-visible telemetry.
func (b *Backend) ReportsDigest() uint64 {
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

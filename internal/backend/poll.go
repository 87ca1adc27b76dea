package backend

import (
	"math"
	"time"

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

// polledSample is one AP's report in flight from AP to cloud. Its
// latency and efficiency samples are drawn into the AP's history at poll
// time; only a delayed report carries its own copy (lat, eff) to delivery.
type polledSample struct {
	ap         *topo.AP
	rec        pollRec // the history row: sample time, usage, utilization, sample count
	hasClients bool
	lat, eff   []float64
}

// Poll collects one statistics sample per AP into the telemetry history:
// usage (bytes served this interval), channel utilization, TCP latency
// samples, and bit-rate efficiency. Faults are applied per AP: offline
// and dropped polls vanish (counters only), corrupted polls mangle the
// metric fields, delayed polls deliver the same sample later via the
// engine. All randomness — the latency/efficiency sample draws — is
// consumed here at poll time, so the b.rng stream advances identically
// whether or not a report is delayed, later rejected, or kept.
func (b *Backend) Poll() {
	sp := b.obsReg.Tracer().Begin("backend.poll")
	passStart := time.Now()
	defer func() {
		b.ctl.pollPassUS.Observe(time.Since(passStart).Microseconds())
		sp.End()
	}()
	now := b.Engine.Now()
	perf := b.Model.Evaluate(now)

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
			ap: ap,
			rec: pollRec{
				At:      now,
				Bytes:   p.ServedMbps * 1e6 / 8 * pollInterval.Seconds(),
				Demand:  demand,
				Served:  p.ServedMbps,
				Clients: float64(ap.Mix.Count),
				Util:    util,
				n:       int32(n),
			},
			// Clients dissociate off-hours; that is when the deep NBO
			// passes can migrate APs onto DFS channels without stranding
			// anyone through a CAC (§4.5.2).
			hasClients: ap.Mix.Count > 0 && p.DemandMbps > 0.15*ap.BaseDemandMbps,
		}
		// Latency and bit-rate observations are per-transmission in the
		// real system, so busy APs and busy hours contribute
		// proportionally more samples to the fleet distributions
		// (Figs 8-9). Importance-weight by served traffic. The draws
		// consume b.rng whatever becomes of the report; they land in the
		// AP's history when it is delivered now and sane, in the report's
		// own copy when it is delayed, and nowhere when it is rejected or
		// no history is kept.
		d, delayed := b.faults.DelayPoll(ap.ID, now)
		var lat, eff []float64
		switch {
		case delayed && b.hist != nil:
			s.lat, s.eff = make([]float64, n), make([]float64, n)
			lat, eff = s.lat, s.eff
		case !delayed && s.sane():
			lat, eff = b.hist.reserve(ap.ID, n)
		}
		for i := 0; i < n; i++ {
			l, e := b.Model.SampleTCPLatency(p, b.rng), b.Model.SampleBitrateEff(p, b.rng)
			if lat != nil {
				lat[i], eff[i] = l, e
			}
		}
		if delayed {
			b.ctl.pollsDelayed.Inc()
			b.ctl.pollDelayUS.Observe(int64(d))
			b.Engine.Post(d, evLate, sim.Payload{int32(b.park(s))})
			continue
		}
		b.accept(&s)
	}
}

// park puts a delayed report in the lowest free slot of the late table
// and returns the slot. Lowest-free makes the slot a function of which
// slots are taken, so a restored table hands out the slots the original
// would have.
func (b *Backend) park(s polledSample) int {
	for i := range b.late {
		if b.late[i].ap == nil {
			b.late[i] = s
			return i
		}
	}
	b.late = append(b.late, s)
	return len(b.late) - 1
}

// deliverLate is the evLate event: the report parked in slot p[0] arrives.
func (b *Backend) deliverLate(p sim.Payload) {
	s := b.late[p[0]]
	b.late[p[0]] = polledSample{}
	b.accept(&s)
}

// sane reports whether the report's metrics are usable. Malformed reports
// (NaN, negative, or wild-scale metrics — every shape faults.CorruptValue
// produces) are rejected whole: no history rows, no last-known-good
// update, so a corrupted poll behaves exactly like a lost one except for
// the counter.
func (s *polledSample) sane() bool {
	return saneMetric(s.rec.Demand, maxSaneDemandMbps) && saneMetric(s.rec.Util, 1)
}

// accept records a delivered report in the history and promotes it to
// the AP's last-known-good snapshot, or counts it rejected. An on-time
// report's samples are already the AP's newest; a delayed one's join the
// history here.
func (b *Backend) accept(s *polledSample) {
	if !s.sane() {
		b.ctl.pollsRejected.Inc()
		return
	}
	if b.hist != nil {
		if s.lat != nil {
			lat, eff := b.hist.reserve(s.ap.ID, len(s.lat))
			copy(lat, s.lat)
			copy(eff, s.eff)
		}
		b.hist.commit(s.ap.ID, s.rec)
	}
	// A delayed report may arrive after a fresher one already landed;
	// last-known-good is ordered by sample time, not delivery time.
	if row := &b.rows[s.ap.ID]; !row.reported || s.rec.At >= row.report.At {
		row.report = apReport{At: s.rec.At, Demand: s.rec.Demand, Utilization: s.rec.Util, HasClients: s.hasClients}
		row.reported = true
	}
}

// saneMetric accepts finite values in [0, hi].
func saneMetric(v, hi float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 && v <= hi
}

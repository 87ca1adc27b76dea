package fleetd

import (
	"math"

	"repro/internal/sim"
)

// The churn-driven cadence controller (Config.AdaptiveCadence). The fixed
// §4.4.4 schedule spends the same planning effort on a network whose NetP
// has not moved in days as on one mid-reshuffle. This controller watches
// each network's observable churn — did the planner improve the plan, and
// how much did the NetP objectives move between executed passes — and
// stretches a quiet network's whole schedule by doubling steps, up to
// adaptMaxMult× the base cadence. Any volatility snaps the multiplier
// back to 1× immediately AND pulls the network's pending deadlines
// forward, so a disturbed network is re-planned within one base period,
// not one stretched period.
//
// Safety bounds: the multiplier is clamped to [1, adaptMaxMult]; the
// stretched schedule still flows through the scheduler's tick budget
// (MaxPassesPerTick shedding and degraded-mode demotion apply unchanged);
// and every controller decision happens in the tick's serial section in
// ascending network-ID order off journaled pass results, so snapshots
// stay byte-identical across worker settings and journal replay.
const (
	// adaptMaxMult caps the stretch: 8× turns the 15-minute fast cadence
	// into 2 hours — still inside one mid (3 h) window, so even a fully
	// stretched network re-observes within the escalation deadline the
	// tests pin.
	adaptMaxMult = 8
	// adaptStreak is how many consecutive quiet observations earn one
	// doubling. Dirty-skipped passes count double: a skip is a *proof* of
	// no change, the strongest quiet signal there is.
	adaptStreak = 3
	// adaptAlpha is the EWMA gain on the per-pass relative NetP delta.
	adaptAlpha = 0.5
	// adaptVolatileEWMA is the churn threshold above which a network is
	// volatile regardless of planner acceptance — external interference
	// moves NetP even when the plan is already the best response.
	adaptVolatileEWMA = 0.02
)

// cadenceMult is the factor applied to every reschedule period. It reads
// 1 when adaptive cadence never engaged, keeping the arithmetic shared
// between modes.
func (ns *netState) cadenceMult() sim.Time {
	if ns.mult <= 1 {
		return 1
	}
	return sim.Time(ns.mult)
}

// adaptObserve feeds one executed pass into the network's controller
// state. Serial-section only; runs before the tick's reschedule loop so
// the new multiplier takes effect this tick.
func (c *Controller) adaptObserve(t sim.Time, j *passJob, res *passResult) {
	ns := j.ns
	if !ns.havePass {
		// First observation only anchors the deltas.
		ns.havePass = true
		ns.lastNP5, ns.lastNP24 = res.logNetP5, res.logNetP24
		return
	}
	d5 := math.Abs(res.logNetP5 - ns.lastNP5)
	d24 := math.Abs(res.logNetP24 - ns.lastNP24)
	rel := (d5 + d24) / (1 + math.Abs(res.logNetP5) + math.Abs(res.logNetP24))
	ns.lastNP5, ns.lastNP24 = res.logNetP5, res.logNetP24
	ns.ewma = adaptAlpha*rel + (1-adaptAlpha)*ns.ewma

	if res.improved > 0 || res.radar > 0 || ns.ewma > adaptVolatileEWMA {
		ns.calm = 0
		if ns.mult > 1 {
			ns.mult = 1
			c.met.adaptEscalated.Inc()
			c.pullSchedule(t, j)
		}
		return
	}
	if res.skipped > 0 {
		ns.calm += 2
	} else {
		ns.calm++
	}
	if ns.calm >= adaptStreak && ns.mult < adaptMaxMult {
		ns.mult *= 2
		ns.calm = 0
		c.met.adaptStretched.Inc()
	}
}

// pullSchedule drags a just-escalated network's pending deadlines forward
// to one base period from now. The tick's own due levels re-arm at the
// (now 1×) multiplier in the reschedule loop; only the levels NOT due at
// this tick sit on stretched deadlines that must be pulled in.
func (c *Controller) pullSchedule(t sim.Time, j *passJob) {
	for level := 0; level < numLevels; level++ {
		due := false
		for _, l := range j.levels {
			if l == level {
				due = true
				break
			}
		}
		if due {
			continue
		}
		period := j.ns.cadence[level]
		if period <= 0 {
			continue
		}
		want := t + period
		if at, ok := c.sched.when(j.ns.id, level); ok && at > want {
			c.sched.reschedule(j.ns.id, level, want)
			c.met.adaptPulled.Inc()
		}
	}
}

// AdaptiveStretched reports schedule-stretch decisions (doublings) taken
// by the adaptive controller.
func (c *Controller) AdaptiveStretched() int64 { return c.met.adaptStretched.Value() }

// AdaptiveEscalated reports volatility escalations (multiplier snapped
// back to 1×).
func (c *Controller) AdaptiveEscalated() int64 { return c.met.adaptEscalated.Value() }

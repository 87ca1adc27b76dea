package backend

import (
	"time"

	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Plan delivery. An accepted plan first becomes the intent of record
// (apRow.intended); each AP whose on-air channel diverges from intent is then
// pushed. A failed push retries with bounded exponential backoff and
// deterministic jitter for up to Opt.PushAttempts attempts — and within a
// total-time cap (Opt.PushRetryTimeCap) measured from the chain's first
// attempt, so one delivery's backoff can never outlive the pass that
// started it. Anything that exhausts either budget — or diverges later,
// e.g. a radar fallback — is caught by the periodic Reconcile pass.
// Intent is re-read at every deferred delivery, so a newer plan always
// supersedes a stale retry.

// applyPlan records plan as the intent of record for the band and pushes
// it to each diverging AP, returning how many switches landed
// immediately. Deferred deliveries (retries, reconciliations) credit
// Service.SwitchesTotal themselves when they land, so partial
// applications are never over-counted.
func (b *Backend) applyPlan(band spectrum.Band, plan turboca.Plan, res turboca.Result) int {
	applied := 0
	for i, ap := range b.Scenario.APs {
		a, ok := plan[ap.ID]
		if !ok {
			continue
		}
		b.rows[i].intended[band], b.rows[i].has[band] = a, true
		if b.channelOn(ap, band) == a.Channel {
			// Already there (e.g. a pinned AP planned in place) — just
			// refresh the DFS fallback; no push needed.
			b.noteFallback(ap, band, a)
			continue
		}
		if b.cancelled() {
			return applied
		}
		if b.pushAP(ap, band, a, 0, b.Engine.Now()) {
			applied++
		}
	}
	return applied
}

// pushAP attempts one configuration push. On failure it arms the backoff
// retry chain and reports false. chainStart is the sim time of the
// chain's first attempt (attempt 0); the retry-time cap is measured from
// it.
func (b *Backend) pushAP(ap *topo.AP, band spectrum.Band, a turboca.Assignment, attempt int, chainStart sim.Time) bool {
	now := b.Engine.Now()
	b.ctl.pushesAttempted.Inc()
	if b.faults.Offline(ap.ID, now) || b.faults.FailPush(ap.ID, int(band), now, attempt) {
		b.ctl.pushesFailed.Inc()
		b.scheduleRetry(ap, band, attempt, chainStart)
		return false
	}
	b.installChannel(ap, band, a)
	return true
}

// scheduleRetry arms the next delivery attempt: delay doubles from
// Opt.PushRetryBase, capped at Opt.PushRetryMax, plus up to 50%
// deterministic jitter so a burst of failures does not retry in
// lockstep. When the attempt budget is exhausted — or the next attempt
// would land beyond Opt.PushRetryTimeCap from the chain's first attempt —
// the chain stops and the reconciler owns the divergence.
func (b *Backend) scheduleRetry(ap *topo.AP, band spectrum.Band, attempt int, chainStart sim.Time) {
	if attempt+1 >= b.Opt.PushAttempts {
		return
	}
	row := &b.rows[ap.ID]
	if row.retrying[band] {
		return
	}
	d := b.Opt.PushRetryBase << uint(attempt)
	if d > b.Opt.PushRetryMax {
		d = b.Opt.PushRetryMax
	}
	d += sim.Time(float64(d) * 0.5 * b.faults.Jitter(ap.ID, int(band), attempt, b.Engine.Now()))
	if cap := b.Opt.PushRetryTimeCap; cap >= 0 && b.Engine.Now()+d-chainStart > cap {
		b.ctl.retryCapHits.Inc()
		return
	}
	row.retrying[band] = true
	b.ctl.pushRetries.Inc()
	b.ctl.pushDelayUS.Observe(int64(d))
	b.Engine.After(d, func(e *sim.Engine) {
		row.retrying[band] = false
		if b.cancelled() {
			return
		}
		// Re-read intent: a newer plan, or a radar fallback, may have
		// superseded the assignment this retry was armed for.
		a := row.intended[band]
		if !row.has[band] || b.channelOn(ap, band) == a.Channel {
			return
		}
		if b.pushAP(ap, band, a, attempt+1, chainStart) && b.Service != nil {
			b.Service.SwitchesTotal++
		}
	})
}

// installChannel applies an assignment to the AP, charging switch
// disruption and invalidating the model when the channel actually
// changes. This is the last gate before an AP transmits on a channel,
// and therefore the mechanical guarantee behind the NOP invariant: a
// quarantined 5 GHz assignment is refused outright. The upstream layers
// (planner candidate filtering, strike-time intent retargeting) should
// make this unreachable — any refusal is counted as a violation attempt
// and the storm campaign asserts the count stays zero. The intent is
// left alone: the reconciler retries after expiry unless a newer plan
// supersedes it first.
func (b *Backend) installChannel(ap *topo.AP, band spectrum.Band, a turboca.Assignment) {
	if band == spectrum.Band5 && rfenv.Touches(a.Channel, b.nopMask()) {
		b.ctl.nopViolations.Inc()
		return
	}
	changed := false
	if band == spectrum.Band2G4 {
		if ap.Channel24 != a.Channel {
			ap.Channel24 = a.Channel
			changed = true
		}
	} else if ap.Channel != a.Channel {
		ap.Channel = a.Channel
		changed = true
	}
	b.noteFallback(ap, band, a)
	if changed {
		b.switches++
		b.chargeSwitch(ap, band, b.Engine.Now())
		b.Model.Invalidate()
	}
}

// Reconcile re-pushes every AP whose on-air channel diverges from the
// intended plan and has no backoff retry already in flight. It iterates
// the scenario's AP slice (never a Go map) so the push order — and with
// it every fault decision and counter — is deterministic.
func (b *Backend) Reconcile() {
	sp := b.obsReg.Tracer().Begin("backend.reconcile")
	passStart := time.Now()
	defer func() {
		b.ctl.reconcilePassUS.Observe(time.Since(passStart).Microseconds())
		sp.End()
	}()
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		for i, ap := range b.Scenario.APs {
			if b.cancelled() {
				return
			}
			row := &b.rows[i]
			a := row.intended[band]
			if !row.has[band] || b.channelOn(ap, band) == a.Channel || row.retrying[band] {
				continue
			}
			b.ctl.reconciliations.Inc()
			if b.pushAP(ap, band, a, 0, b.Engine.Now()) && b.Service != nil {
				b.Service.SwitchesTotal++
			}
		}
	}
}

// Converged reports whether every AP with an intended assignment is on
// that channel — the control plane's eventual-consistency invariant.
func (b *Backend) Converged() bool {
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		for i, ap := range b.Scenario.APs {
			if row := &b.rows[i]; row.has[band] && b.channelOn(ap, band) != row.intended[band].Channel {
				return false
			}
		}
	}
	return true
}

// channelOn returns the AP's on-air channel for the band.
func (b *Backend) channelOn(ap *topo.AP, band spectrum.Band) spectrum.Channel {
	if band == spectrum.Band2G4 {
		return ap.Channel24
	}
	return ap.Channel
}

// noteFallback tracks the planner-provided DFS fallback for 5 GHz
// assignments (radar.go consumes it).
func (b *Backend) noteFallback(ap *topo.AP, band spectrum.Band, a turboca.Assignment) {
	if band == spectrum.Band5 {
		b.rows[ap.ID].fallback = a.Fallback
	}
}

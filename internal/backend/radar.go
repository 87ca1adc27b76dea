package backend

import (
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// DFS radar handling (§4.5.2): operation on a DFS channel requires
// vacating immediately when radar is detected, and TurboCA therefore
// maintains a non-DFS fallback for every DFS assignment. Two injection
// shapes exist:
//
//   - RadarEventsPerDay draws uncorrelated single detections — one AP at
//     a time, the paper's per-AP model;
//   - Options.RF schedules correlated radar storms (rfenv.Storm): one
//     sweep strikes a whole DFS frequency range, so every AP whose
//     bonded channel touches it vacates in the same instant.
//
// When a hostile-RF environment is attached, every detection also
// starts the regulatory 30-minute non-occupancy period on the covered
// 20 MHz sub-channels. The two places that choose a channel keep out of
// it — the planner's admissible-channel provider (turboca/admissible.go,
// fed by Input.Blocked) and the radar fallback draw (fallbackFor, below);
// one gate, push.go's installChannel, refuses any quarantined assignment
// whatever produced it; and one audit, the periodic checkNOP sweep,
// counts any AP caught transmitting inside an active window as an
// invariant violation. The storm campaign asserts that count stays zero.

// radarCheckInterval is how often the injector draws for events (and,
// under an RF env, how often the NOP invariant sweep runs).
const radarCheckInterval = 15 * sim.Minute

// startRadar installs the radar machinery: the random injector when
// RadarEventsPerDay enables it, the scheduled storms and the invariant
// sweep when an RF environment is attached.
func (b *Backend) startRadar() {
	if b.Opt.RadarEventsPerDay > 0 || b.rf != nil {
		b.Engine.Post(radarCheckInterval, evRadar, sim.Payload{})
	}
	if b.rf == nil {
		return
	}
	now := b.Engine.Now()
	for i, s := range b.rf.Storms {
		if s.At > now {
			b.Engine.Post(s.At-now, evStorm, sim.Payload{int32(i)})
		}
	}
}

// radarTick is one radarCheckInterval tick: a random detection with the
// configured probability, then the invariant sweep.
func (b *Backend) radarTick() {
	perCheck := b.Opt.RadarEventsPerDay * radarCheckInterval.Seconds() / sim.Day.Seconds()
	if perCheck > 0 && b.rng.Float64() < perCheck {
		b.radarEvent()
	}
	b.checkNOP()
}

// radarEvent picks a random AP operating on a DFS channel and injects a
// detection there. Without an RF environment this vacates just that AP
// (the legacy uncorrelated model, rng-compatible with it); with one, the
// detection quarantines the channel's sub-channels, which vacates every
// co-channel AP too — radar does not strike one AP, it strikes spectrum.
func (b *Backend) radarEvent() {
	var onDFS []int
	for i, ap := range b.Scenario.APs {
		if ap.Channel.DFS {
			onDFS = append(onDFS, i)
		}
	}
	if len(onDFS) == 0 {
		return
	}
	ap := b.Scenario.APs[onDFS[b.rng.Intn(len(onDFS))]]
	b.radarHit++
	if b.rf != nil {
		b.strike(ap.Channel.Sub20Numbers())
		return
	}
	b.vacate(ap, 0)
	b.Model.Invalidate()
}

// radarStorm fires one correlated sweep from the RF environment's
// schedule: quarantine the struck range and vacate everything on it.
func (b *Backend) radarStorm(s rfenv.Storm) {
	b.radarHit++
	b.ctl.radarStorms.Inc()
	b.strike(s.Subs())
}

// strike starts the NOP on the given 20 MHz sub-channels and walks the
// network in Scenario.APs order: any AP on the air inside the struck
// range is vacated immediately, and any in-flight intended assignment
// pointing into it is retargeted so push retries and the reconciler
// cannot re-push a quarantined channel during its NOP window.
func (b *Backend) strike(subs []int) {
	if len(subs) == 0 {
		return
	}
	now := b.Engine.Now()
	struck := b.rf.Q.Strike(subs, now)
	nop := b.rf.Q.Mask(now)
	moved := false
	for i, ap := range b.Scenario.APs {
		row := &b.rows[i]
		switch {
		case rfenv.Touches(ap.Channel, struck):
			b.ctl.radarStrikes.Inc()
			b.vacate(ap, nop)
			moved = true
		case row.has[spectrum.Band5] && rfenv.Touches(row.intended[spectrum.Band5].Channel, struck):
			// The AP is not on the struck range but a pending push would
			// put it there (a retry or reconcile in flight).
			row.intended[spectrum.Band5] = turboca.Assignment{Channel: b.fallbackFor(ap, nop)}
		}
	}
	if moved {
		b.Model.Invalidate()
	}
}

// vacate moves ap off its current channel onto a fallback outside nop (the
// sub-channels under quarantine, as a spectrum mask) and makes that the
// plan of record — otherwise the reconciler would immediately push it back
// onto the radar channel.
func (b *Backend) vacate(ap *topo.AP, nop uint64) {
	fb := b.fallbackFor(ap, nop)
	ap.Channel = fb
	b.switches++
	if row := &b.rows[ap.ID]; row.has[spectrum.Band5] {
		row.intended[spectrum.Band5] = turboca.Assignment{Channel: fb}
	}
}

// fallbackFor selects the channel an AP falls back to after a radar hit:
// the planner-provided non-DFS fallback when it exists and is not itself
// quarantined (a fallback computed before this strike can point straight
// into it — the NOPBlockedFallbacks counter tracks how often), otherwise
// a random non-DFS channel outside nop (every active NOP window) at the
// AP's width, narrowing until one exists.
func (b *Backend) fallbackFor(ap *topo.AP, nop uint64) spectrum.Channel {
	if fb := b.rows[ap.ID].fallback; fb.Width != 0 && !fb.DFS {
		if !rfenv.Touches(fb, nop) {
			return fb
		}
		b.ctl.nopBlockedFallbacks.Inc()
	}
	w := ap.Channel.Width
	if !w.Valid() {
		w = spectrum.W20
	}
	for ; w.Valid(); w /= 2 {
		var free []spectrum.Channel
		for _, c := range spectrum.Channels(spectrum.Band5, w, false) {
			if !rfenv.Touches(c, nop) {
				free = append(free, c)
			}
		}
		if len(free) > 0 {
			return free[b.rng.Intn(len(free))]
		}
	}
	// Non-DFS channels cannot be radar-quarantined, so this is unreachable
	// under radar strikes; kept as the deterministic floor.
	fb, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	return fb
}

// nopMask returns the 5 GHz sub-channels under an active NOP right now, as
// a spectrum mask: zero without an RF environment.
func (b *Backend) nopMask() uint64 {
	if b.rf == nil {
		return 0
	}
	return b.rf.Q.Mask(b.Engine.Now())
}

// checkNOP audits the no-transmit-during-NOP invariant: with the planner
// and the fallback draw keeping out of the quarantine and installChannel
// refusing it, no AP should ever be found on a quarantined channel. Any
// hit here is a real bug, surfaced as a counter the storm campaign asserts
// to be zero.
func (b *Backend) checkNOP() {
	nop := b.nopMask()
	if nop == 0 {
		return
	}
	for _, ap := range b.Scenario.APs {
		if rfenv.Touches(ap.Channel, nop) {
			b.ctl.nopViolations.Inc()
		}
	}
}

package fleetd

import (
	"context"
	"time"

	"repro/internal/sim"
)

// Per-pass supervision. A fleet controller must outlive any single
// network's failure: one panicking planner pass — a bug, corrupt state,
// or injected chaos — quarantines that network instead of killing 10k
// control planes, and a wedged pass is cancelled by a wall-clock watchdog
// through the context the backend's poll/push/reconcile loops honor.
//
// A faulted pass contributes nothing to the tick's serial section: no
// counters, no adaptive-cadence observation, no reschedule. Its network's
// engine and backend freeze wherever the fault stopped them, the
// scheduler drops every pending deadline for it, and syncEngines skips it
// from then on — so a quarantined network cannot perturb any other
// network's plan bytes, which the chaos tests pin exactly.

// executePassSupervised wraps one worker-pool pass with panic isolation
// and the stuck-pass watchdog. It never lets a pass take down the
// process: any panic (and any pass still running at its deadline) comes
// back as a faulted result that the serial section turns into a
// quarantine.
func (c *Controller) executePassSupervised(t sim.Time, j *passJob) (res *passResult) {
	ns := j.ns
	defer func() {
		if r := recover(); r != nil {
			c.met.passPanics.Inc()
			res = &passResult{faulted: true}
		}
	}()
	ns.ensureBuilt()

	ctx := context.Background()
	cancel := func() {}
	var timer *time.Timer
	if c.cfg.PassDeadline > 0 {
		ctx, cancel = context.WithCancel(ctx)
		timer = time.AfterFunc(c.cfg.PassDeadline, cancel)
		ns.be.SetPassContext(ctx)
	}
	defer func() {
		if timer == nil {
			return
		}
		timer.Stop()
		ns.be.SetPassContext(nil)
		if ctx.Err() != nil {
			// The watchdog fired: whatever the pass produced after its
			// deadline is suspect (its control loops were aborting
			// mid-flight), so the whole pass is treated as faulted.
			c.met.watchdogCancels.Inc()
			if res != nil {
				res = &passResult{faulted: true}
			}
		}
		cancel()
	}()

	if c.proc.PanicPass(ns.id, t, j.level) {
		panic("fleetd: injected pass panic")
	}
	if timer != nil && c.proc.StuckPass(ns.id, t, j.level) {
		// An injected wedge: block until the watchdog cancels the pass,
		// then fall through — the cancelled context makes the control
		// loops abort, and the deferred check above quarantines.
		<-ctx.Done()
	}
	return c.executePass(t, j)
}

// quarantine isolates a faulted network: no future deadlines, no engine
// syncs, no further passes. Its registry entry remains so snapshots and
// the worst-networks report show the quarantine.
func (c *Controller) quarantine(ns *netState) {
	ns.quarantined = true
	c.met.quarantined.Inc()
	c.sched.dropNetwork(ns.id)
}

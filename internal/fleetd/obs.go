package fleetd

import "repro/internal/obs"

// Controller observability (scope "fleetd"):
//
//	fleetd.networks          registered (non-removed) networks
//	fleetd.passes_i{0,1,2}   planning passes executed, by cadence level
//	fleetd.skipped_i0        fast band-invocations the planning service
//	                         elided as provable no-ops (dirty-skip);
//	                         observability only — a skipped invocation
//	                         changes no planner-visible state
//	fleetd.shed_i{0,1,2}     passes shed under overload, by level
//	fleetd.coalesced         shallower passes subsumed by a deeper pass
//	                         due at the same tick (the §4.4.4 schedule
//	                         composition: every deep pass ends in i=0)
//	fleetd.removed_dropped   heap entries dropped because their network
//	                         was removed
//	fleetd.due_per_tick      passes due at one scheduler tick
//	fleetd.shed_per_tick     passes shed at one scheduler tick
//	fleetd.sched_lag_us      wall µs a dispatched pass waited for a
//	                         worker (scheduler lag under load)
//	fleetd.pass_us           wall µs per executed pass (engine advance +
//	                         planning)
//
// Durability and supervision (PR 7):
//
//	fleetd.journal_records   intent-journal records durably appended
//	fleetd.ckpt_commits      checkpoints committed (periodic + forced)
//	fleetd.ckpt_failures     checkpoint attempts that failed (injected or
//	                         real IO), entering/escalating degraded mode
//	fleetd.torn_dropped      torn journal tail records dropped at Open
//	fleetd.recoveries        journal replays performed by Open
//	fleetd.degraded_enters   transitions into checkpoint-degraded mode
//	fleetd.degraded_demoted  deep passes demoted to i=0 under degradation
//	fleetd.lag_degraded      transitions into scheduler-lag degraded mode
//	fleetd.pass_panics       panicking passes caught by the supervisor
//	fleetd.watchdog_cancels  stuck passes cancelled past their deadline
//	fleetd.quarantined       networks quarantined after a faulted pass
//
// Adaptive cadence (Config.AdaptiveCadence; adaptive.go):
//
//	fleetd.adapt_stretched   schedule-stretch decisions (multiplier
//	                         doublings after a calm streak)
//	fleetd.adapt_escalated   volatility escalations (multiplier snapped
//	                         back to 1x)
//	fleetd.adapt_pulled      pending deadlines pulled forward by an
//	                         escalation
type metrics struct {
	networks       *obs.Gauge
	passesRun      [numLevels]*obs.Counter
	skippedI0      *obs.Counter
	passesShed     [numLevels]*obs.Counter
	coalesced      *obs.Counter
	removedDropped *obs.Counter
	duePerTick     *obs.Histogram
	shedPerTick    *obs.Histogram
	schedLagUS     *obs.Histogram
	passUS         *obs.Histogram

	journalRecords  *obs.Counter
	ckptCommits     *obs.Counter
	ckptFailures    *obs.Counter
	tornDropped     *obs.Counter
	recoveries      *obs.Counter
	degradedEnters  *obs.Counter
	degradedDemoted *obs.Counter
	lagDegraded     *obs.Counter
	passPanics      *obs.Counter
	watchdogCancels *obs.Counter
	quarantined     *obs.Counter

	adaptStretched *obs.Counter
	adaptEscalated *obs.Counter
	adaptPulled    *obs.Counter
}

func metricsOn(reg *obs.Registry) *metrics {
	s := reg.Scope("fleetd")
	m := &metrics{
		networks:       s.Gauge("networks"),
		skippedI0:      s.Counter("skipped_i0"),
		coalesced:      s.Counter("coalesced"),
		removedDropped: s.Counter("removed_dropped"),
		duePerTick:     s.Histogram("due_per_tick", "passes"),
		shedPerTick:    s.Histogram("shed_per_tick", "passes"),
		schedLagUS:     s.Histogram("sched_lag_us", "µs"),
		passUS:         s.Histogram("pass_us", "µs"),

		journalRecords:  s.Counter("journal_records"),
		ckptCommits:     s.Counter("ckpt_commits"),
		ckptFailures:    s.Counter("ckpt_failures"),
		tornDropped:     s.Counter("torn_dropped"),
		recoveries:      s.Counter("recoveries"),
		degradedEnters:  s.Counter("degraded_enters"),
		degradedDemoted: s.Counter("degraded_demoted"),
		lagDegraded:     s.Counter("lag_degraded"),
		passPanics:      s.Counter("pass_panics"),
		watchdogCancels: s.Counter("watchdog_cancels"),
		quarantined:     s.Counter("quarantined"),

		adaptStretched: s.Counter("adapt_stretched"),
		adaptEscalated: s.Counter("adapt_escalated"),
		adaptPulled:    s.Counter("adapt_pulled"),
	}
	for level := 0; level < numLevels; level++ {
		m.passesRun[level] = s.Counter("passes_" + levelName(level))
		m.passesShed[level] = s.Counter("shed_" + levelName(level))
	}
	return m
}

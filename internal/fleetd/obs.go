package fleetd

import "repro/internal/obs"

// Controller observability (scope "fleetd"):
//
//	fleetd.networks          registered networks
//	fleetd.passes_i{0,1,2}   planning passes executed, by cadence level
//	fleetd.skipped_i0        fast band-invocations the planning service
//	                         elided as provable no-ops (dirty-skip);
//	                         observability only — a skipped invocation
//	                         changes no planner-visible state
//	fleetd.shed_i{0,1,2}     passes shed under overload, by level
//	fleetd.coalesced         shallower passes subsumed by a deeper pass
//	                         due at the same tick (the §4.4.4 schedule
//	                         composition: every deep pass ends in i=0)
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
//	                         real IO, periodic or forced); counted and
//	                         skipped, nothing else changes
//	fleetd.torn_dropped      torn journal tail records dropped at Open
//	fleetd.recoveries        recoveries performed by Open (restore
//	                         from the newest restart point, then replay
//	                         of the journal after it); a recovering
//	                         registry counts only the work recovery did
//	fleetd.pass_panics       panicking passes caught by the supervisor
//	fleetd.watchdog_cancels  stuck passes cancelled past their deadline
//	fleetd.quarantined       networks quarantined after a faulted pass
type metrics struct {
	networks    *obs.Gauge
	passesRun   [numLevels]*obs.Counter
	skippedI0   *obs.Counter
	passesShed  [numLevels]*obs.Counter
	coalesced   *obs.Counter
	duePerTick  *obs.Histogram
	shedPerTick *obs.Histogram
	schedLagUS  *obs.Histogram
	passUS      *obs.Histogram

	journalRecords  *obs.Counter
	ckptCommits     *obs.Counter
	ckptFailures    *obs.Counter
	tornDropped     *obs.Counter
	recoveries      *obs.Counter
	passPanics      *obs.Counter
	watchdogCancels *obs.Counter
	quarantined     *obs.Counter
}

func metricsOn(reg *obs.Registry) *metrics {
	s := reg.Scope("fleetd")
	m := &metrics{
		networks:    s.Gauge("networks"),
		skippedI0:   s.Counter("skipped_i0"),
		coalesced:   s.Counter("coalesced"),
		duePerTick:  s.Histogram("due_per_tick", "passes"),
		shedPerTick: s.Histogram("shed_per_tick", "passes"),
		schedLagUS:  s.Histogram("sched_lag_us", "µs"),
		passUS:      s.Histogram("pass_us", "µs"),

		journalRecords:  s.Counter("journal_records"),
		ckptCommits:     s.Counter("ckpt_commits"),
		ckptFailures:    s.Counter("ckpt_failures"),
		tornDropped:     s.Counter("torn_dropped"),
		recoveries:      s.Counter("recoveries"),
		passPanics:      s.Counter("pass_panics"),
		watchdogCancels: s.Counter("watchdog_cancels"),
		quarantined:     s.Counter("quarantined"),
	}
	for level := 0; level < numLevels; level++ {
		m.passesRun[level] = s.Counter("passes_" + levelName(level))
		m.passesShed[level] = s.Counter("shed_" + levelName(level))
	}
	return m
}

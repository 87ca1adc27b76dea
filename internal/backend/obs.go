package backend

import (
	"repro/internal/obs"
)

// Control-plane observability (scope "backend"). ControlStats used to be a
// one-off struct of plain ints; the counters now live on an obs registry
// so the same numbers are visible through every export path (-metrics
// JSON, text dumps, experiment reports) while the public Control()
// accessor keeps returning a ControlStats value. A Backend built without
// Options.Obs owns a private registry, so its Control() delta is exact
// regardless of what other instances do; with a shared registry the
// construction-time baseline still yields a correct delta as long as
// Control() is read before a later instance starts mutating the counters.
//
// Metric inventory (beyond the ControlStats counters, named in snake_case
// under "backend."):
//
//	backend.poll_pass_us       wall µs per Poll tick across all APs
//	backend.reconcile_pass_us  wall µs per Reconcile pass
//	backend.poll_age_us        sim µs: last-known-good report age at
//	                           planner-input build (the staleness ladder's
//	                           input distribution)
//	backend.poll_delay_us      sim µs: transit delay of delayed reports
//	backend.push_delay_us      sim µs: scheduled push retry backoff
type ctlMetrics struct {
	pollsAttempted  *obs.Counter
	pollsOffline    *obs.Counter
	pollsDropped    *obs.Counter
	pollsDelayed    *obs.Counter
	pollsCorrupted  *obs.Counter
	pollsRejected   *obs.Counter
	pushesAttempted *obs.Counter
	pushesFailed    *obs.Counter
	pushRetries     *obs.Counter
	reconciliations *obs.Counter
	staleViews      *obs.Counter
	pinnedViews     *obs.Counter
	ctxAborts       *obs.Counter

	radarStorms         *obs.Counter
	radarStrikes        *obs.Counter
	nopBlockedFallbacks *obs.Counter
	nopViolations       *obs.Counter

	pollPassUS      *obs.Histogram
	reconcilePassUS *obs.Histogram
	pollAgeUS       *obs.Histogram
	pollDelayUS     *obs.Histogram
	pushDelayUS     *obs.Histogram
}

func ctlMetricsOn(reg *obs.Registry) *ctlMetrics {
	s := reg.Scope("backend")
	return &ctlMetrics{
		pollsAttempted:  s.Counter("polls_attempted"),
		pollsOffline:    s.Counter("polls_offline"),
		pollsDropped:    s.Counter("polls_dropped"),
		pollsDelayed:    s.Counter("polls_delayed"),
		pollsCorrupted:  s.Counter("polls_corrupted"),
		pollsRejected:   s.Counter("polls_rejected"),
		pushesAttempted: s.Counter("pushes_attempted"),
		pushesFailed:    s.Counter("pushes_failed"),
		pushRetries:     s.Counter("push_retries"),
		reconciliations: s.Counter("reconciliations"),
		staleViews:      s.Counter("stale_views"),
		pinnedViews:     s.Counter("pinned_views"),
		ctxAborts:       s.Counter("ctx_aborts"),

		radarStorms:         s.Counter("radar_storms"),
		radarStrikes:        s.Counter("radar_strikes"),
		nopBlockedFallbacks: s.Counter("nop_blocked_fallbacks"),
		nopViolations:       s.Counter("nop_violations"),
		pollPassUS:          s.Histogram("poll_pass_us", "µs"),
		reconcilePassUS:     s.Histogram("reconcile_pass_us", "µs"),
		pollAgeUS:           s.Histogram("poll_age_us", "simµs"),
		pollDelayUS:         s.Histogram("poll_delay_us", "simµs"),
		pushDelayUS:         s.Histogram("push_delay_us", "simµs"),
	}
}

// read returns the absolute counter values as a ControlStats.
func (m *ctlMetrics) read() ControlStats {
	return ControlStats{
		PollsAttempted:  int(m.pollsAttempted.Value()),
		PollsOffline:    int(m.pollsOffline.Value()),
		PollsDropped:    int(m.pollsDropped.Value()),
		PollsDelayed:    int(m.pollsDelayed.Value()),
		PollsCorrupted:  int(m.pollsCorrupted.Value()),
		PollsRejected:   int(m.pollsRejected.Value()),
		PushesAttempted: int(m.pushesAttempted.Value()),
		PushesFailed:    int(m.pushesFailed.Value()),
		PushRetries:     int(m.pushRetries.Value()),
		Reconciliations: int(m.reconciliations.Value()),
		StaleViews:      int(m.staleViews.Value()),
		PinnedViews:     int(m.pinnedViews.Value()),

		RadarStorms:         int(m.radarStorms.Value()),
		RadarStrikes:        int(m.radarStrikes.Value()),
		NOPBlockedFallbacks: int(m.nopBlockedFallbacks.Value()),
		NOPViolations:       int(m.nopViolations.Value()),
	}
}

// sub returns s − o field-wise (the per-Backend delta against its
// construction-time baseline).
func (s ControlStats) sub(o ControlStats) ControlStats {
	return ControlStats{
		PollsAttempted:  s.PollsAttempted - o.PollsAttempted,
		PollsOffline:    s.PollsOffline - o.PollsOffline,
		PollsDropped:    s.PollsDropped - o.PollsDropped,
		PollsDelayed:    s.PollsDelayed - o.PollsDelayed,
		PollsCorrupted:  s.PollsCorrupted - o.PollsCorrupted,
		PollsRejected:   s.PollsRejected - o.PollsRejected,
		PushesAttempted: s.PushesAttempted - o.PushesAttempted,
		PushesFailed:    s.PushesFailed - o.PushesFailed,
		PushRetries:     s.PushRetries - o.PushRetries,
		Reconciliations: s.Reconciliations - o.Reconciliations,
		StaleViews:      s.StaleViews - o.StaleViews,
		PinnedViews:     s.PinnedViews - o.PinnedViews,

		RadarStorms:         s.RadarStorms - o.RadarStorms,
		RadarStrikes:        s.RadarStrikes - o.RadarStrikes,
		NOPBlockedFallbacks: s.NOPBlockedFallbacks - o.NOPBlockedFallbacks,
		NOPViolations:       s.NOPViolations - o.NOPViolations,
	}
}

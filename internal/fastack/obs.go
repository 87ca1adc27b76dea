package fastack

import (
	"repro/internal/obs"
)

// tally is what an agent counts beyond Stats: the cache lookups behind
// every re-drive and the bypasses by reason. It stays out of Stats, whose
// printed shape the testbed golden pins.
type tally struct {
	cacheHits   int64
	cacheMisses int64
	bypasses    [len(guardReasons)]int64 // by position in guardReasons
}

// histograms are the agent's value distributions, one per Fold histogram.
type histograms struct {
	ampduBytes, ampduSegs, advWindow, guardDebt, guardDrainMs *obs.Histogram
}

func newHistograms() histograms {
	return histograms{
		ampduBytes:   obs.NewHistogram("B"),
		ampduSegs:    obs.NewHistogram("segs"),
		advWindow:    obs.NewHistogram("B"),
		guardDebt:    obs.NewHistogram("B"),
		guardDrainMs: obs.NewHistogram("ms"),
	}
}

// Fold adds the agent's counts to s, the "fastack" scope of the registry a
// run reports into. The agent counts in plain fields that only its engine's
// goroutine may touch, so a run folds each agent once, after its engine has
// stopped. Folding several agents sums them.
//
// Metric inventory:
//
//	fastack.fast_acks_sent      proactive TCP ACKs generated toward senders
//	fastack.client_acks_dropped client duplicate ACKs suppressed
//	fastack.cache_hits          retransmission-cache lookups that served
//	fastack.cache_misses        lookups for segments not (or no longer) held
//	fastack.cache_evictions     per-flow limit-forced evictions (limit too
//	                            small or purge outrun by the sender)
//	fastack.cache_evictions_shared
//	                            segments reclaimed from LRU flows by the
//	                            cross-flow cache budget
//	fastack.cache_budget_overruns
//	                            inserts that left the shared budget overrun
//	                            (every evictable byte vouched) — each trips
//	                            the inserting flow's cache_thrash guard
//	fastack.local_retransmits   segments re-driven from the cache
//	fastack.window_updates      explicit window-update ACKs after a clamp
//	fastack.guard_suspects      flows parked in Suspect by a soft anomaly
//	fastack.guard_bypasses      flows tripped into Bypass (all reasons)
//	fastack.guard_bypass_<r>    bypasses by reason: storm, debt_stall,
//	                            seq_jump, wild_ack, cache_thrash, rst,
//	                            idle_debt
//	fastack.guard_drained       bypassed flows whose debt drained to zero
//	fastack.guard_invariant_violations
//	                            runtime safety-invariant trips (must be 0)
//	fastack.ampdu_bytes         bytes coalesced per fast ACK — the agent's
//	                            proxy for delivered A-MPDU size (§5.2: one
//	                            block ACK covers one aggregate)
//	fastack.ampdu_segs          MPDUs coalesced per fast ACK
//	fastack.adv_window_bytes    rewritten advertised window per generated
//	                            ACK (0 ⇒ sender deliberately stalled)
//	fastack.guard_debt_bytes    fast-ACK debt carried into Bypass
//	fastack.guard_drain_ms      Bypass → PassThrough drain duration
func (a *Agent) Fold(s *obs.Scope) {
	st := a.stats
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{"fast_acks_sent", st.FastAcksSent},
		{"client_acks_dropped", st.ClientAcksDropped},
		{"cache_hits", a.tally.cacheHits},
		{"cache_misses", a.tally.cacheMisses},
		{"cache_evictions", st.CacheEvictions},
		{"cache_evictions_shared", st.SharedCacheEvictions},
		{"cache_budget_overruns", st.SharedBudgetOverruns},
		{"local_retransmits", st.LocalRetransmits},
		{"window_updates", st.WindowUpdates},
		{"guard_suspects", st.GuardSuspects},
		{"guard_bypasses", st.GuardBypasses},
		{"guard_drained", st.GuardDrains},
		{"guard_invariant_violations", st.InvariantViolations},
	} {
		s.Counter(c.name).Add(c.v)
	}
	for i, r := range guardReasons {
		s.Counter("guard_bypass_" + string(r)).Add(a.tally.bypasses[i])
	}
	for _, h := range [...]struct {
		name string
		h    *obs.Histogram
	}{
		{"ampdu_bytes", a.hist.ampduBytes},
		{"ampdu_segs", a.hist.ampduSegs},
		{"adv_window_bytes", a.hist.advWindow},
		{"guard_debt_bytes", a.hist.guardDebt},
		{"guard_drain_ms", a.hist.guardDrainMs},
	} {
		s.Histogram(h.name, h.h.Unit()).Merge(h.h)
	}
}

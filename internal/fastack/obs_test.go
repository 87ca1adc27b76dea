package fastack

import (
	"math/rand"
	"testing"

	"repro/internal/obs"
)

// TestFoldSumsAgents folds agents driven through the differential scripts
// into one scope: every counter must equal the sum of what the agents
// counted, and every histogram must hold one observation per event it
// records.
func TestFoldSumsAgents(t *testing.T) {
	reg := obs.NewRegistry()
	var sum Stats
	var hits, misses, byReason int64
	for seed := int64(1); seed <= 20; seed++ {
		cfg := diffConfig(seed)
		h := newHarness(cfg)
		rng := rand.New(rand.NewSource(seed))
		var flows []*diffFlow
		for i := 0; i < 2; i++ {
			srv, cli := benchEPs(i)
			benchHandshake(h.a, srv, cli)
			flows = append(flows, &diffFlow{srv: srv, cli: cli, next: 1000, acked: 1000, lastAck: 1000})
		}
		for step := 0; step < 160; step++ {
			_, call := diffOp(rng, h.a, flows[rng.Intn(len(flows))], cfg)
			call(h, h.a.HandleUplink)
		}
		h.a.Fold(reg.Scope("fastack"))

		st := h.a.Stats()
		sum.FastAcksSent += st.FastAcksSent
		sum.ClientAcksDropped += st.ClientAcksDropped
		sum.CacheEvictions += st.CacheEvictions
		sum.SharedCacheEvictions += st.SharedCacheEvictions
		sum.SharedBudgetOverruns += st.SharedBudgetOverruns
		sum.LocalRetransmits += st.LocalRetransmits
		sum.WindowUpdates += st.WindowUpdates
		sum.GuardSuspects += st.GuardSuspects
		sum.GuardBypasses += st.GuardBypasses
		sum.GuardDrains += st.GuardDrains
		sum.InvariantViolations += st.InvariantViolations
		hits += h.a.tally.cacheHits
		misses += h.a.tally.cacheMisses
		for _, n := range h.a.tally.bypasses {
			byReason += n
		}
	}
	if sum.FastAcksSent == 0 || sum.GuardBypasses == 0 || sum.GuardDrains == 0 || hits == 0 {
		t.Fatalf("scripts too quiet to check the fold: %+v, %d cache hits", sum, hits)
	}
	if byReason != sum.GuardBypasses {
		t.Errorf("bypasses by reason sum to %d, GuardBypasses %d", byReason, sum.GuardBypasses)
	}

	s := reg.Snapshot()
	for name, want := range map[string]int64{
		"fast_acks_sent":             sum.FastAcksSent,
		"client_acks_dropped":        sum.ClientAcksDropped,
		"cache_hits":                 hits,
		"cache_misses":               misses,
		"cache_evictions":            sum.CacheEvictions,
		"cache_evictions_shared":     sum.SharedCacheEvictions,
		"cache_budget_overruns":      sum.SharedBudgetOverruns,
		"local_retransmits":          sum.LocalRetransmits,
		"window_updates":             sum.WindowUpdates,
		"guard_suspects":             sum.GuardSuspects,
		"guard_bypasses":             sum.GuardBypasses,
		"guard_drained":              sum.GuardDrains,
		"guard_invariant_violations": sum.InvariantViolations,
		"ampdu_bytes":                sum.FastAcksSent,
		"ampdu_segs":                 sum.FastAcksSent,
		"guard_debt_bytes":           sum.GuardBypasses,
		"guard_drain_ms":             sum.GuardDrains,
	} {
		got, ok := s.Counters["fastack."+name]
		if h, isHist := s.Histograms["fastack."+name]; isHist {
			got, ok = h.Count, true
		}
		if !ok || got != want {
			t.Errorf("fastack.%s = %d (registered %v), want %d", name, got, ok, want)
		}
	}
	var reasons int64
	for _, r := range guardReasons {
		reasons += s.Counters["fastack.guard_bypass_"+string(r)]
	}
	if reasons != sum.GuardBypasses {
		t.Errorf("fastack.guard_bypass_* sum to %d, want %d", reasons, sum.GuardBypasses)
	}
	if n := s.Histograms["fastack.adv_window_bytes"].Count; n < sum.FastAcksSent+sum.WindowUpdates {
		t.Errorf("fastack.adv_window_bytes holds %d ACKs, fewer than %d fast ACKs and window updates", n, sum.FastAcksSent+sum.WindowUpdates)
	}
}

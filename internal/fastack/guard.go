package fastack

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// The safety guard makes FastACK first-do-no-harm: the agent only keeps
// impersonating the client's TCP receiver while the impersonation is
// demonstrably safe. Each flow runs a one-way state machine
//
//	Active ──anomaly──▶ Suspect ──2nd anomaly──▶ Bypass ──ack progress──▶ Draining ──debt=0──▶ PassThrough
//	   │  ▲                │                        ▲
//	   │  └──clean window──┘                        │
//	   └──storm / stalled debt / cache thrash───────┘
//
// driven by pathology detectors: local-retransmit storms that make no
// forward progress, fast-ACK'd-but-undelivered bytes ("debt") stalled past
// an age threshold, out-of-window / wild-sequence anomalies, and cache
// thrash that would evict vouched-for bytes. Once bypassed, the agent
// stops generating fast ACKs and stops suppressing the client's real
// ACKs — but it cannot simply walk away: the sender already believes the
// debt range [seq_TCP, seq_fack) was delivered and will never retransmit
// it. The agent therefore retains retransmit responsibility for exactly
// that range, backed by the retransmission cache, until the client's real
// cumulative ACKs catch up to seq_fack; then the flow detaches cleanly
// into pass-through. There is deliberately no Bypass → Active recovery: a
// flow that wobbled once runs end-to-end TCP for the rest of its life.
//
// The state is data on the agent's one path per event: every event passes
// the gate (bypassed), then reads the state to decide what it may do. Only
// Active and Suspect flows are tripped: the detectors run where the gate
// let such a flow through, RST and Sweep check.

// GuardState is a flow's position in the safety state machine.
type GuardState uint8

const (
	// GuardActive: full FastACK operation.
	GuardActive GuardState = iota
	// GuardSuspect: one soft anomaly observed; full operation continues,
	// but a second anomaly inside the suspect window trips Bypass.
	GuardSuspect
	// GuardBypass: no fast ACKs, no suppression; the agent still owes the
	// debt range and serves it from the cache.
	GuardBypass
	// GuardDraining: Bypass with client ACK progress observed; the debt is
	// shrinking.
	GuardDraining
	// GuardPassThrough: debt fully repaid; the flow is detached and every
	// packet passes untouched until Sweep reaps the tombstone.
	GuardPassThrough
)

func (s GuardState) String() string {
	switch s {
	case GuardActive:
		return "active"
	case GuardSuspect:
		return "suspect"
	case GuardBypass:
		return "bypass"
	case GuardDraining:
		return "draining"
	case GuardPassThrough:
		return "passthrough"
	}
	return "unknown"
}

// GuardReason labels why a flow was bypassed.
type GuardReason string

const (
	// GuardReasonStorm: StormThreshold segments locally retransmitted with
	// zero client ACK progress in between.
	GuardReasonStorm GuardReason = "storm"
	// GuardReasonDebtStall: debt made no progress for DebtStallTimeout.
	GuardReasonDebtStall GuardReason = "debt_stall"
	// GuardReasonSeqJump: downlink sequence implausibly far beyond seq_exp.
	GuardReasonSeqJump GuardReason = "seq_jump"
	// GuardReasonWildAck: client cumulative ACK beyond seq_high.
	GuardReasonWildAck GuardReason = "wild_ack"
	// GuardReasonCacheThrash: the cache limit tried to evict vouched bytes.
	GuardReasonCacheThrash GuardReason = "cache_thrash"
	// GuardReasonRST: sender RST on a flow still carrying debt.
	GuardReasonRST GuardReason = "rst"
	// GuardReasonIdleDebt: Sweep found an expired-idle flow with debt.
	GuardReasonIdleDebt GuardReason = "idle_debt"
)

// guardReasons enumerates every reason; an agent counts bypasses by
// position here (Fold).
var guardReasons = [...]GuardReason{
	GuardReasonStorm, GuardReasonDebtStall, GuardReasonSeqJump,
	GuardReasonWildAck, GuardReasonCacheThrash, GuardReasonRST,
	GuardReasonIdleDebt,
}

// The guard's fixed thresholds.
const (
	// suspectWindow: a second soft anomaly within this window of the first
	// trips Bypass; a clean window returns the flow to Active.
	suspectWindow = 250 * sim.Millisecond
	// maxSeqJump is the largest credible gap between seq_exp and an
	// arriving downlink sequence; anything larger is treated as header
	// corruption, not an upstream hole.
	maxSeqJump = 16 << 20
)

// GuardConfig tunes the safety guard; zero fields take production
// defaults.
type GuardConfig struct {
	// StormThreshold is how many locally retransmitted segments, with zero
	// client ACK progress in between, constitute a retransmit storm.
	// Healthy §5.7 bad-hint repair advances the client's ACK every burst;
	// a storm redrives the same range without moving it.
	StormThreshold int
	// DebtStallTimeout bypasses a flow whose debt (fast-ACK'd bytes the
	// client has not acknowledged) makes no progress for this long.
	DebtStallTimeout sim.Time
	// DrainExpiry is how long past IdleExpiry Sweep retains an idle flow
	// that still carries debt before giving up on the drain.
	DrainExpiry sim.Time
}

func (g *GuardConfig) applyDefaults() {
	if g.StormThreshold == 0 {
		g.StormThreshold = 96
	}
	if g.DebtStallTimeout == 0 {
		g.DebtStallTimeout = 1500 * sim.Millisecond
	}
	if g.DrainExpiry == 0 {
		g.DrainExpiry = sim.Minute
	}
}

// FlowGuardState reports a tracked flow's guard state.
func (a *Agent) FlowGuardState(key packet.Flow) (GuardState, bool) {
	f, ok := a.flows[key]
	if !ok {
		return GuardActive, false
	}
	return f.gstate, true
}

// bypassed is the guard's gate, passed by every downlink segment, 802.11
// feedback report and client ACK on a flow before the agent acts for it.
// On an Active or Suspect flow it runs the time-based detectors — Suspect
// decays back to Active after a clean window, stalled debt trips Bypass —
// and it reports whether the flow is (now) bypassed.
func (a *Agent) bypassed(f *flowState) bool {
	if f.gstate >= GuardBypass {
		return true
	}
	now := a.now()
	if f.gstate == GuardSuspect && now-f.suspectAt > suspectWindow {
		f.gstate = GuardActive
	}
	if f.debtBytes() == 0 {
		f.debtProgressAt = now
	} else if now-f.debtProgressAt > a.cfg.Guard.DebtStallTimeout {
		a.guardTrip(f, GuardReasonDebtStall)
	}
	return f.gstate >= GuardBypass
}

// guardSoftAnomaly records one suspicious-but-survivable observation. The
// first parks the flow in Suspect; a second inside the suspect window
// trips Bypass — unless the client's cumulative ACK advanced within that
// window. Anomalies on a stream that is still making end-to-end progress
// are corrupted headers riding a healthy flow (the agent forwards them
// untouched and loses nothing); anomalies on a progress-free stream mean
// the agent's model of the flow can no longer be trusted.
func (a *Agent) guardSoftAnomaly(f *flowState, reason GuardReason) {
	now := a.now()
	switch f.gstate {
	case GuardActive:
		f.gstate = GuardSuspect
		f.suspectAt = now
		a.stats.GuardSuspects++
	case GuardSuspect:
		if now-f.suspectAt > suspectWindow {
			// The earlier anomaly aged out; this one starts a fresh window.
			f.suspectAt = now
			a.stats.GuardSuspects++
			return
		}
		if now-f.ackProgressAt <= suspectWindow {
			// Still delivering: stay Suspect instead of giving up FastACK
			// for good on what is so far survivable noise.
			f.suspectAt = now
			return
		}
		a.guardTrip(f, reason)
	}
}

// guardNoteRetransmits feeds the storm detector: n locally retransmitted
// segments. The counter resets whenever the client's cumulative ACK
// advances, so only progress-free redriving accumulates.
func (a *Agent) guardNoteRetransmits(f *flowState, n int) {
	f.stormCount += n
	if f.stormCount >= a.cfg.Guard.StormThreshold {
		a.guardTrip(f, GuardReasonStorm)
	}
}

// guardTrip moves an Active or Suspect flow into Bypass (or straight to
// PassThrough when it carries no debt). From here the agent generates no
// fast ACKs and suppresses nothing; it keeps serving [seq_TCP, seq_fack)
// from the cache.
func (a *Agent) guardTrip(f *flowState, reason GuardReason) {
	now := a.now()
	f.bypassAt = now
	f.bypassReason = reason
	f.debtAtBypass = int64(f.debtBytes())
	a.stats.GuardBypasses++
	for i, r := range guardReasons {
		if r == reason {
			a.tally.bypasses[i]++
		}
	}
	a.hist.guardDebt.Observe(f.debtAtBypass)
	f.gstate = GuardBypass
	f.stormCount = 0
	f.dupAcksFromClient = 0
	if f.debtAtBypass == 0 {
		a.guardDetach(f)
		return
	}
	f.debtProgressAt = now
	f.dropPackets(true)
	a.finishFlow(f)
}

// guardDetach completes a drain: the debt is repaid, the flow becomes a
// pass-through tombstone holding no packet state.
func (a *Agent) guardDetach(f *flowState) {
	a.stats.GuardDrains++
	a.hist.guardDrainMs.Observe(int64((a.now() - f.bypassAt) / sim.Millisecond))
	f.gstate = GuardPassThrough
	f.dropPackets(false)
	a.accountFlow(f)
}

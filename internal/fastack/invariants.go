package fastack

import (
	"fmt"

	"repro/internal/seqspace"
)

// Runtime invariant checker (enabled by Config.CheckInvariants, used by
// the chaos suite and the fuzz targets). It asserts the safety core the
// guard exists to protect:
//
//  1. the agent never fast-ACKs beyond bytes actually received from the
//     wire (seq_fack ≤ seq_exp ≤ seq_high);
//  2. a generated ACK's advertised window never exceeds the client's
//     scaled window;
//  3. while a bypassed flow drains, the retransmission cache covers the
//     entire debt range [seq_TCP, seq_fack) — the agent can always make
//     good on what it vouched for.
//
// A violation is a bug in the agent, never in the network: the checks
// count into Stats().InvariantViolations, the fastack obs scope, and a
// bounded message log readable via Violations().

// maxViolationLog bounds the retained violation messages.
const maxViolationLog = 32

func (a *Agent) violate(f *flowState, format string, args ...any) {
	a.stats.InvariantViolations++
	obsm.invariantViolations.Inc()
	if len(a.violations) < maxViolationLog {
		msg := fmt.Sprintf(format, args...)
		a.violations = append(a.violations, fmt.Sprintf("%s [%s]", msg, f))
	}
}

// Violations returns the retained invariant-violation messages.
func (a *Agent) Violations() []string { return a.violations }

// checkFastAck validates a generated ACK at emission time (invariants 1
// and 2).
func (a *Agent) checkFastAck(f *flowState, ackNo uint32, advBytes int) {
	if !a.cfg.CheckInvariants {
		return
	}
	if seqspace.LT(f.seqExp, ackNo) {
		a.violate(f, "fast-ACK %d beyond wire frontier seq_exp=%d", ackNo, f.seqExp)
	}
	if cw := f.clientWindow; cw >= 0 && advBytes > cw {
		a.violate(f, "advertised %dB exceeds client window %dB", advBytes, cw)
	}
}

// checkFlow validates a flow's structural invariants after a mutation.
func (a *Agent) checkFlow(f *flowState) {
	if !a.cfg.CheckInvariants || !f.initialized {
		return
	}
	if seqspace.LT(f.seqExp, f.seqFack) {
		a.violate(f, "seq_fack=%d ahead of seq_exp=%d", f.seqFack, f.seqExp)
	}
	if seqspace.LT(f.seqHigh, f.seqExp) {
		a.violate(f, "seq_exp=%d ahead of seq_high=%d", f.seqExp, f.seqHigh)
	}
	if (f.gstate == GuardBypass || f.gstate == GuardDraining) && !a.cfg.DisableCache {
		if !f.cacheCovers(f.seqTCP, f.seqFack) {
			a.violate(f, "cache does not cover debt range [%d, %d)", f.seqTCP, f.seqFack)
		}
	}
}

// cacheCovers reports whether the cache, walked in seq order, covers every
// byte of [left, right) with no gap.
func (f *flowState) cacheCovers(left, right uint32) bool {
	if !seqspace.LT(left, right) {
		return true
	}
	cur := left
	for i := 0; i < f.cache.Len(); i++ {
		c := f.cache.At(i)
		if seqspace.LEQ(segEnd(c), cur) {
			continue
		}
		if seqspace.LT(cur, c.Seq) {
			return false // gap before this entry
		}
		cur = segEnd(c)
		if seqspace.LEQ(right, cur) {
			return true
		}
	}
	return false
}

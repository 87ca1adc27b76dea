// Package faults is a deterministic, seeded fault-injection layer for the
// cloud↔AP control plane (§2, §4.5): per-AP poll loss, delayed report
// delivery, malformed telemetry, AP offline windows, and plan-push
// failures.
//
// Every decision is a pure hash of (seed, AP, kind, salt, attempt, time),
// never a shared RNG stream, so outcomes are independent of the order in
// which the backend asks. Two runs with the same seed therefore see
// byte-identical fault sequences, which is what makes chaos tests
// reproducible and lets a faulted run be compared against its fault-free
// twin at the same seed.
package faults

import (
	"math"

	"repro/internal/sim"
)

// Profile describes one fault model. Probabilities are per decision (per
// poll of one AP, per push attempt to one AP); zero disables that fault
// class. The zero Profile injects nothing.
type Profile struct {
	// Seed anchors every hash-derived decision.
	Seed int64
	// PollLoss is the probability one AP's poll is lost outright.
	PollLoss float64
	// PollDelay is the probability a collected report is delayed in
	// transit; the delivery delay is uniform in (0, PollDelayMax].
	PollDelay    float64
	PollDelayMax sim.Time // default 10 min when delays are enabled
	// PollCorrupt is the probability a delivered report carries mangled
	// metric values (NaN, sign flips, wild scales).
	PollCorrupt float64
	// PushFail is the probability one plan-push attempt to an AP fails.
	PushFail float64
	// Reorder is the probability one delivery is held back behind later
	// traffic; the extra holding delay is uniform in (0, ReorderMax].
	Reorder    float64
	ReorderMax sim.Time // default 2 ms when reordering is enabled
	// Duplicate is the probability one delivery arrives twice.
	Duplicate float64
	// Offline lists per-AP windows during which the AP answers no polls
	// and accepts no pushes.
	Offline []Window
}

// Window is a half-open [From, To) interval during which one AP is
// unreachable from the cloud.
type Window struct {
	APID     int
	From, To sim.Time
}

// DefaultChaos is the canonical stress profile used by the chaos suite
// and cmd/turboca -chaos: 20% poll loss, 10% delayed reports, 2%
// corrupted reports, 10% push failures. Offline windows are
// scenario-specific and left to the caller.
func DefaultChaos(seed int64) *Profile {
	return &Profile{
		Seed:        seed,
		PollLoss:    0.20,
		PollDelay:   0.10,
		PollCorrupt: 0.02,
		PushFail:    0.10,
	}
}

// Injector answers the backend's fault questions. A nil *Injector is
// valid and reports "no fault" everywhere, so fault-free deployments pay
// only a nil check.
type Injector struct {
	prof    Profile
	offline map[int][]Window
}

// New builds an injector for a profile; a nil profile yields a nil
// injector (fault-free).
func New(p *Profile) *Injector {
	if p == nil {
		return nil
	}
	inj := &Injector{prof: *p, offline: map[int][]Window{}}
	if inj.prof.PollDelayMax <= 0 {
		inj.prof.PollDelayMax = 10 * sim.Minute
	}
	if inj.prof.ReorderMax <= 0 {
		inj.prof.ReorderMax = 2 * sim.Millisecond
	}
	for _, w := range p.Offline {
		inj.offline[w.APID] = append(inj.offline[w.APID], w)
	}
	return inj
}

// Active reports whether any fault can ever fire.
func (inj *Injector) Active() bool { return inj != nil }

// Decision kinds keep the hash streams for different questions disjoint.
const (
	kindPollLoss = iota + 1
	kindPollDelay
	kindPollDelayAmount
	kindPollCorrupt
	kindPushFail
	kindJitter
	kindCorrupt
	kindReorder
	kindReorderAmount
	kindDuplicate
)

// mix is a splitmix64-style finalizer over the decision coordinates.
func mix(seed int64, ap, kind, salt, attempt int, at sim.Time) uint64 {
	z := uint64(seed)
	z ^= 0x9e3779b97f4a7c15 * uint64(uint32(ap)+1)
	z += 0xbf58476d1ce4e5b9 * uint64(uint32(kind))
	z ^= 0x94d049bb133111eb * uint64(uint32(salt)+1)
	z += 0xd6e8feb86659fd93 * uint64(uint32(attempt)+1)
	z ^= uint64(at) * 0x2545f4914f6cdd1d
	return sim.Mix64(z)
}

// uniform maps a decision's hash to [0, 1).
func (inj *Injector) uniform(ap, kind, salt, attempt int, at sim.Time) float64 {
	return float64(mix(inj.prof.Seed, ap, kind, salt, attempt, at)>>11) / (1 << 53)
}

// Offline reports whether the AP is inside one of its offline windows.
func (inj *Injector) Offline(ap int, at sim.Time) bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.offline[ap] {
		if at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// DropPoll reports whether this AP's poll at this instant is lost.
func (inj *Injector) DropPoll(ap int, at sim.Time) bool {
	if inj == nil || inj.prof.PollLoss <= 0 {
		return false
	}
	return inj.uniform(ap, kindPollLoss, 0, 0, at) < inj.prof.PollLoss
}

// DelayPoll reports whether this AP's report is delayed, and by how much.
func (inj *Injector) DelayPoll(ap int, at sim.Time) (sim.Time, bool) {
	if inj == nil || inj.prof.PollDelay <= 0 {
		return 0, false
	}
	if inj.uniform(ap, kindPollDelay, 0, 0, at) >= inj.prof.PollDelay {
		return 0, false
	}
	d := sim.Time(inj.uniform(ap, kindPollDelayAmount, 0, 0, at) * float64(inj.prof.PollDelayMax))
	if d < sim.Millisecond {
		d = sim.Millisecond
	}
	return d, true
}

// CorruptPoll reports whether this AP's report arrives malformed.
func (inj *Injector) CorruptPoll(ap int, at sim.Time) bool {
	if inj == nil || inj.prof.PollCorrupt <= 0 {
		return false
	}
	return inj.uniform(ap, kindPollCorrupt, 0, 0, at) < inj.prof.PollCorrupt
}

// CorruptValue mangles a telemetry value the way malformed reports do in
// practice: NaN, a sign flip, or a wild scale. salt separates the fields
// of one report so they are not all mangled the same way.
func (inj *Injector) CorruptValue(v float64, ap, salt int, at sim.Time) float64 {
	if inj == nil {
		return v
	}
	switch mix(inj.prof.Seed, ap, kindCorrupt, salt, 0, at) % 3 {
	case 0:
		return math.NaN()
	case 1:
		return -v - 1
	default:
		return v * 1e6
	}
}

// FailPush reports whether one push attempt to an AP fails. salt carries
// the band so simultaneous pushes of a multi-band plan fail independently.
func (inj *Injector) FailPush(ap, salt int, at sim.Time, attempt int) bool {
	if inj == nil || inj.prof.PushFail <= 0 {
		return false
	}
	return inj.uniform(ap, kindPushFail, salt, attempt, at) < inj.prof.PushFail
}

// ReorderDelay reports whether the delivery keyed (id, salt) is held back
// behind later traffic, and for how long. Like every primitive here the
// draw is a pure hash of the coordinates, so the answer does not depend
// on how many other questions were asked first.
func (inj *Injector) ReorderDelay(id, salt int, at sim.Time) (sim.Time, bool) {
	if inj == nil || inj.prof.Reorder <= 0 {
		return 0, false
	}
	if inj.uniform(id, kindReorder, salt, 0, at) >= inj.prof.Reorder {
		return 0, false
	}
	d := sim.Time(inj.uniform(id, kindReorderAmount, salt, 0, at) * float64(inj.prof.ReorderMax))
	if d < sim.Microsecond {
		d = sim.Microsecond
	}
	return d, true
}

// Duplicate reports whether the delivery keyed (id, salt) arrives twice.
func (inj *Injector) Duplicate(id, salt int, at sim.Time) bool {
	if inj == nil || inj.prof.Duplicate <= 0 {
		return false
	}
	return inj.uniform(id, kindDuplicate, salt, 0, at) < inj.prof.Duplicate
}

// Jitter returns a deterministic fraction in [0, 1) for retry backoff, so
// retries de-synchronize without a shared RNG.
func (inj *Injector) Jitter(ap, salt, attempt int, at sim.Time) float64 {
	if inj == nil {
		return 0
	}
	return inj.uniform(ap, kindJitter, salt, attempt, at)
}

// Package rfenv models a hostile RF environment for the control-plane
// simulation: WACA-style per-channel occupancy traces (bursty,
// heavy-tailed non-WiFi energy, deterministic per (seed, channel)),
// correlated DFS radar storms that clear whole frequency ranges in one
// sweep, and the regulatory non-occupancy quarantine a radar detection
// imposes on every covered 20 MHz sub-channel.
//
// The package is pure environment state — it schedules nothing itself.
// The backend samples Traces into each planner input, fires Storms from
// its engine, and consults the Quarantine at every point a channel could
// be assigned (planner candidates, radar fallbacks, plan pushes).
package rfenv

import (
	"math/bits"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// NOPDuration is the FCC non-occupancy period: after a radar detection,
// every covered 20 MHz sub-channel must stay silent for 30 minutes.
const NOPDuration = 30 * sim.Minute

// Env bundles the hostile-RF state for one network. Traces and Storms
// are optional (nil/empty disables them); Q is always present so strike
// handling never needs a nil check. An Env is engine-affine state like
// the backend that owns it: not safe for concurrent use.
type Env struct {
	Traces *TraceSet
	Storms []Storm
	Q      *Quarantine
}

// NewEnv assembles an environment around an always-present quarantine
// table. storms must be sorted by At ascending (StormSchedule's output
// already is).
func NewEnv(traces *TraceSet, storms []Storm) *Env {
	return &Env{Traces: traces, Storms: storms, Q: NewQuarantine()}
}

// Quarantine is the non-occupancy table: the NOP expiry instant of each
// 5 GHz 20 MHz sub-channel, indexed by the sub-channel's bit position in
// a spectrum mask (spectrum.Sub20Mask), so the set under quarantine at an
// instant is itself a spectrum mask and "does this channel touch it" is
// one AND. A sub-channel is blocked for t in [strike, strike+NOPDuration)
// and free again exactly at expiry. The zero value is an empty table.
type Quarantine struct {
	expiry [64]sim.Time
	last   sim.Time // the latest expiry: from then on nothing is blocked
}

// NewQuarantine returns an empty table.
func NewQuarantine() *Quarantine { return &Quarantine{} }

// Strike starts (or extends) a NOP on every listed 5 GHz sub-channel
// number and returns the struck sub-channels as a spectrum mask. Numbers
// that are not US 5 GHz 20 MHz channels are ignored.
func (q *Quarantine) Strike(subs []int, at sim.Time) uint64 {
	var struck uint64
	for _, s := range subs {
		struck |= spectrum.Sub20Mask(spectrum.Band5, s)
	}
	for m := struck; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); at+NOPDuration > q.expiry[i] {
			q.expiry[i] = at + NOPDuration
		}
	}
	if struck != 0 && at+NOPDuration > q.last {
		q.last = at + NOPDuration
	}
	return struck
}

// Mask returns the sub-channels inside an active NOP window at t, as a
// 5 GHz spectrum mask.
func (q *Quarantine) Mask(t sim.Time) uint64 {
	var m uint64
	if t >= q.last {
		return 0
	}
	for i, e := range q.expiry {
		if e > t {
			m |= 1 << i
		}
	}
	return m
}

// Expiries returns the table: entry i is the NOP expiry of mask bit i's
// sub-channel, trailing zeros dropped (nil for an empty table).
func (q *Quarantine) Expiries() []sim.Time {
	n := len(q.expiry)
	for n > 0 && q.expiry[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return append([]sim.Time(nil), q.expiry[:n]...)
}

// SetExpiries replaces the table with one Expiries returned.
func (q *Quarantine) SetExpiries(exp []sim.Time) {
	*q = Quarantine{}
	copy(q.expiry[:], exp)
	for _, e := range q.expiry {
		q.last = max(q.last, e)
	}
}

// Touches reports whether c is a 5 GHz channel covering any sub-channel
// of mask — quarantine propagates to every bonded channel that touches a
// struck sub-channel. Only 5 GHz channels can be radar quarantined. A
// channel the US plan does not have (malformed telemetry reaching the
// install gate or the audit) is judged by the sub-channel numbers its
// width would span, or by its own number when the width is no width.
func Touches(c spectrum.Channel, mask uint64) bool {
	if c.Band != spectrum.Band5 || mask == 0 {
		return false
	}
	if id, ok := spectrum.IDOf(c); ok {
		return id.Mask()&mask != 0
	}
	subs := []int{c.Number}
	if c.Width.Valid() {
		subs = c.Sub20Numbers()
	}
	for _, s := range subs {
		if spectrum.Sub20Mask(spectrum.Band5, s)&mask != 0 {
			return true
		}
	}
	return false
}

// Blocked reports whether any 20 MHz sub-channel covered by c is inside
// an active NOP window at t.
func (q *Quarantine) Blocked(c spectrum.Channel, t sim.Time) bool {
	return Touches(c, q.Mask(t))
}

// Default5GHzChannels returns the 20 MHz channel numbers a trace set
// covers by default: all 25 US 5 GHz channels (the 24 bondable ones plus
// ch 165).
func Default5GHzChannels() []int {
	chans := spectrum.Channels(spectrum.Band5, spectrum.W20, true)
	out := make([]int, len(chans))
	for i, c := range chans {
		out[i] = c.Number
	}
	return out
}

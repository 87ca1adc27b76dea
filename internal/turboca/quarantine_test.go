package turboca

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/spectrum"
)

// Quarantine threading through the planner (Input.Blocked) and the trace
// interference term (Input.ChannelNoise).

// blockSubs builds a 5 GHz Blocked mask from sub-channel numbers.
func blockSubs(subs ...int) uint64 {
	var m uint64
	for _, s := range subs {
		m |= spectrum.Sub20Mask(spectrum.Band5, s)
	}
	return m
}

func touchesAny(c spectrum.Channel, blocked uint64) bool {
	for _, s := range c.Sub20Numbers() {
		if spectrum.Sub20Mask(c.Band, s)&blocked != 0 {
			return true
		}
	}
	return false
}

// TestNBORespectsQuarantine: no accepted assignment may touch a blocked
// sub-channel, including stay-put on a just-quarantined current channel.
func TestNBORespectsQuarantine(t *testing.T) {
	in := chainInput(6, spectrum.W80, 1.0)
	// The chain starts on ch 42 (subs 36-48); quarantine exactly that
	// block plus U-NII-2A, so staying put is inadmissible.
	in.Blocked = blockSubs(36, 40, 44, 48, 52, 56, 60, 64)
	res := RunNBO(DefaultConfig(), in, rng(), []int{1, 0})
	for id, a := range res.Plan {
		if touchesAny(a.Channel, in.Blocked) {
			t.Fatalf("AP %d assigned %v inside the quarantine", id, a.Channel)
		}
		if touchesAny(a.Fallback, in.Blocked) {
			t.Fatalf("AP %d fallback %v inside the quarantine", id, a.Fallback)
		}
	}
	// Every AP must still get a plan — quarantine narrows, never fails.
	if len(res.Plan) != 6 {
		t.Fatalf("planned %d of 6 APs", len(res.Plan))
	}
}

// TestQuarantineDegradationLadder: when the quarantine swallows every
// admissible candidate, acc must degrade deterministically — first to the
// narrowest unquarantined non-DFS channels, and under a (radar-impossible)
// total quarantine to the unfiltered narrowest set — never fail or keep a
// blocked current channel.
func TestQuarantineDegradationLadder(t *testing.T) {
	// Partial quarantine: everything except U-NII-3 (149-165). The chain
	// sits on ch 42, now blocked; acc must choose a surviving channel.
	in := chainInput(3, spectrum.W80, 1.0)
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		if c.Number < 149 {
			in.Blocked |= blockSubs(c.Number)
		}
	}
	p := newPlanner(DefaultConfig(), in)
	for i := range p.views {
		c := p.acc(i)
		if c == spectrum.None {
			t.Fatalf("acc(%d) failed under partial quarantine", i)
		}
		if touchesAny(c.Channel(), in.Blocked) {
			t.Fatalf("acc(%d) chose quarantined %v", i, c.Channel())
		}
	}

	// Total quarantine: every 20 MHz sub blocked. Radar cannot produce
	// this (non-DFS channels are never struck), but the planner must still
	// land on the deterministic narrowest floor instead of failing.
	in2 := chainInput(3, spectrum.W80, 1.0)
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		in2.Blocked |= blockSubs(c.Number)
	}
	p2 := newPlanner(DefaultConfig(), in2)
	for i := range p2.views {
		c := p2.acc(i)
		if c == spectrum.None {
			t.Fatalf("acc(%d) failed under total quarantine", i)
		}
		if c.Channel().Width != spectrum.W20 {
			t.Fatalf("acc(%d) floor width %v, want 20 MHz", i, c.Channel().Width)
		}
	}
}

// TestReservedCARespectsQuarantine: the fixed-width baseline skips
// quarantined channels too — backend radar fallback depends on it.
func TestReservedCARespectsQuarantine(t *testing.T) {
	in := chainInput(4, spectrum.W80, 1.0)
	in.Blocked = blockSubs(36, 40, 44, 48)
	res := RunReservedCA(DefaultConfig(), in, spectrum.W20)
	for id, a := range res.Plan {
		if touchesAny(a.Channel, in.Blocked) {
			t.Fatalf("ReservedCA assigned AP %d to quarantined %v", id, a.Channel)
		}
	}
}

// TestChannelNoisePenalizesOccupiedChannels: trace interference folded
// into a channel's external utilization must make it score worse than an
// equally-situated quiet channel.
func TestChannelNoisePenalizesOccupiedChannels(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	noisy, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	quiet, _ := spectrum.ChannelAt(spectrum.Band5, 106, spectrum.W80)
	in.ChannelNoise = subRow(spectrum.Band5, map[int]float64{149: 0.7, 153: 0.7, 157: 0.7, 161: 0.7})
	p := newPlanner(DefaultConfig(), in)
	ni := p.idOf(noisy)
	qi := p.idOf(quiet)
	if nodePAt(p, 0, ni) >= nodePAt(p, 0, qi) {
		t.Fatalf("noisy channel scored %f >= quiet %f", nodePAt(p, 0, ni), nodePAt(p, 0, qi))
	}
}

// TestChannelNoiseCapsAtFullOccupancy: noise on top of external WiFi
// utilization saturates at 1 rather than overflowing the airtime model.
func TestChannelNoiseCapsAtFullOccupancy(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.APs[0].ExternalUtil = subRow(spectrum.Band5, map[int]float64{149: 0.8})
	in.ChannelNoise = subRow(spectrum.Band5, map[int]float64{149: 0.9})
	p := newPlanner(DefaultConfig(), in)
	c, _ := spectrum.ChannelAt(spectrum.Band5, 149, spectrum.W20)
	ci := p.idOf(c)
	if got := p.extOf[0][ci]; got != 1 {
		t.Fatalf("external+noise = %v, want capped at 1", got)
	}
}

// TestDigestCoversQuarantineAndNoise: Blocked and ChannelNoise must dirty
// the input digest — otherwise dirty-skip would replay a pre-storm plan
// straight through a NOP window.
func TestDigestCoversQuarantineAndNoise(t *testing.T) {
	base := chainInput(2, spectrum.W80, 1.0)
	d0 := base.Digest()

	b := chainInput(2, spectrum.W80, 1.0)
	b.Blocked = blockSubs(52)
	if b.Digest() == d0 {
		t.Fatal("Blocked does not affect the digest")
	}
	b2 := chainInput(2, spectrum.W80, 1.0)
	b2.Blocked = blockSubs(56)
	if b2.Digest() == b.Digest() {
		t.Fatal("different quarantines share a digest")
	}

	n := chainInput(2, spectrum.W80, 1.0)
	n.ChannelNoise = subRow(spectrum.Band5, map[int]float64{36: 0.4})
	if n.Digest() == d0 {
		t.Fatal("ChannelNoise does not affect the digest")
	}
	n2 := chainInput(2, spectrum.W80, 1.0)
	n2.ChannelNoise = subRow(spectrum.Band5, map[int]float64{36: 0.5})
	if n2.Digest() == n.Digest() {
		t.Fatal("noise level does not affect the digest")
	}

	// How a row is laid out must not leak into the digest: one cut after
	// its last entry, or running past the band, is the same table.
	m1 := chainInput(2, spectrum.W80, 1.0)
	m1.ChannelNoise = subRow(spectrum.Band5, map[int]float64{36: 0.1, 40: 0.2, 52: 0.3})
	m2 := chainInput(2, spectrum.W80, 1.0)
	m2.ChannelNoise = m1.ChannelNoise[:5] // ch 52 is the band's fifth channel
	m3 := chainInput(2, spectrum.W80, 1.0)
	m3.ChannelNoise = append(append([]float64(nil), m1.ChannelNoise...), 0.9, 0.9)
	if m1.Digest() != m2.Digest() || m1.Digest() != m3.Digest() {
		t.Fatal("digest depends on the row's length")
	}
	if m1.ChannelNoise = nil; m1.Digest() != d0 {
		t.Fatal("a nil row does not digest as no noise")
	}
}

// TestSanitizeQuarantineFields: sanitation clears Blocked bits beyond the
// band (so equivalent quarantine states digest identically), clamps noise
// into [0, 1] and cuts an over-long row to the band without writing to it.
func TestSanitizeQuarantineFields(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.Blocked = blockSubs(52) | 1<<25 | 1<<63 // 5 GHz has sub-channels 0..24
	long := append(subRow(spectrum.Band5, map[int]float64{36: 1.7, 40: -0.2, 44: 0.5, 48: math.NaN()}), -3, 7)
	in.ChannelNoise = long
	if fixes := in.Sanitize(); fixes != 5 { // stray bits, length, three entries
		t.Fatalf("sanitize reported %d fixes, want 5", fixes)
	}
	if in.Blocked != blockSubs(52) {
		t.Fatalf("Blocked = %#x, want only ch 52's bit", in.Blocked)
	}
	if len(in.ChannelNoise) != 25 || long[25] != -3 || long[26] != 7 {
		t.Fatalf("over-long row: len %d, surplus %v (want cut at 25, surplus untouched)", len(in.ChannelNoise), long[25:])
	}
	if got := in.ChannelNoise[:4]; got[0] != 1 || got[1] != 0 || got[2] != 0.5 || got[3] != 0 {
		t.Fatalf("noise after sanitize = %v, want [1 0 0.5 0]", got)
	}
	if fixes := in.Sanitize(); fixes != 0 {
		t.Fatalf("second pass applied %d fixes", fixes)
	}

	// Canonical equivalence: stray bits digest like none.
	b := chainInput(1, spectrum.W80, 1.0)
	b.Blocked = blockSubs(52)
	b.ChannelNoise = subRow(spectrum.Band5, map[int]float64{36: 1, 44: 0.5})
	if in.Digest() != b.Digest() {
		t.Fatal("equivalent quarantine states digest differently")
	}
}

// TestEvaluatorQuarantineSuperset: the oracle's candidate lists must stay
// a feasibility superset of the greedy planners under quarantine — every
// channel NBO assigns appears among the evaluator's candidates — while
// never themselves admitting a blocked channel.
func TestEvaluatorQuarantineSuperset(t *testing.T) {
	in := chainInput(5, spectrum.W80, 1.0)
	in.Blocked = blockSubs(36, 40, 44, 48)
	cfg := DefaultConfig()
	e := NewEvaluator(cfg, CanonicalInput(in))
	for i := 0; i < e.NumAPs(); i++ {
		for _, c := range e.Candidates(i) {
			if c == Unassigned {
				continue
			}
			if touchesAny(e.Channel(c), in.Blocked) {
				t.Fatalf("evaluator candidate %v touches the quarantine", e.Channel(c))
			}
		}
	}
	// The chain's on-air channel (42) is quarantined, so Unassigned must
	// be the admissible "stay" for every unpinned AP.
	for i := 0; i < e.NumAPs(); i++ {
		found := false
		for _, c := range e.Candidates(i) {
			if c == Unassigned {
				found = true
			}
		}
		if !found {
			t.Fatalf("AP %d: quarantined on-air channel but no Unassigned candidate", i)
		}
	}
	res := RunNBO(cfg, in, rng(), []int{1, 0})
	for i := 0; i < e.NumAPs(); i++ {
		a, ok := res.Plan[e.APID(i)]
		if !ok {
			continue
		}
		found := false
		for _, c := range e.Candidates(i) {
			if c != Unassigned && e.Channel(c) == a.Channel {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("NBO assigned AP %d channel %v outside the evaluator's candidates", e.APID(i), a.Channel)
		}
	}
}

// TestLadderHasOneReading walks the admissible-channel ladder over every
// width cap (including the zero cap of an input that skipped Sanitize),
// with and without clients, under no, partial and every-non-DFS
// quarantine. ACC's pick and the Evaluator's enumeration must come from
// the same reading of the constraints: the pick is always a candidate, it
// is quarantined only on the ladder's last rung, and the Evaluator offers
// nothing beyond the cap that ACC could not itself fall back to.
func TestLadderHasOneReading(t *testing.T) {
	var below149, nonDFS uint64
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		if c.Number < 149 {
			below149 |= blockSubs(c.Number)
		}
		if !c.DFS {
			nonDFS |= blockSubs(c.Number)
		}
	}
	quarantines := []struct {
		name     string
		blocked  uint64
		lastRung bool // every non-DFS channel is quarantined
	}{{"none", 0, false}, {"partial", below149, false}, {"every non-DFS struck", nonDFS, true}}

	for _, q := range quarantines {
		for _, maxW := range []spectrum.Width{0, spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160} {
			for _, hasClients := range []bool{false, true} {
				// A NaN load (unsanitized telemetry) makes every deltaScore
				// NaN; the pick must stay inside the same sets.
				for _, load := range []float64{1.0, math.NaN()} {
					name := fmt.Sprintf("%s cap=%v clients=%v load=%v", q.name, maxW, hasClients, load)
					in := chainInput(3, spectrum.W160, load)
					in.Blocked = q.blocked
					for i := range in.APs {
						in.APs[i].MaxWidth = maxW
						in.APs[i].HasClients = hasClients
					}
					p := newPlanner(DefaultConfig(), in)
					e := NewEvaluator(DefaultConfig(), in)
					for i := range p.views {
						pick := p.acc(i)
						if pick == spectrum.None {
							t.Fatalf("%s: acc(%d) found nothing", name, i)
						}
						member := false
						for _, c := range e.Candidates(i) {
							member = member || c == int(pick)
							if c == Unassigned || c == e.OnAir(i) {
								continue
							}
							if ch := e.Channel(c); ch.Width > maxW && (ch.Width != spectrum.W20 || ch.DFS) {
								t.Errorf("%s: AP %d is offered %v, which ACC can never return", name, i, ch)
							}
						}
						if !member {
							t.Errorf("%s: acc(%d) = %v is not an Evaluator candidate", name, i, pick.Channel())
						}
						if touchesAny(pick.Channel(), q.blocked) && !(q.lastRung && (hasClients || maxW == 0)) {
							t.Errorf("%s: acc(%d) = %v is quarantined above the last rung", name, i, pick.Channel())
						}
					}
				}
			}
		}
	}
}

package turboca

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/spectrum"
)

// Quarantine threading through the planner (Input.Blocked) and the trace
// interference term (Input.ChannelNoise).

// blockSubs builds a Blocked set from sub-channel numbers.
func blockSubs(subs ...int) map[int]bool {
	m := make(map[int]bool, len(subs))
	for _, s := range subs {
		m[s] = true
	}
	return m
}

func touchesAny(c spectrum.Channel, blocked map[int]bool) bool {
	for _, s := range c.Sub20Numbers() {
		if blocked[s] {
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
		if a.Fallback != nil && touchesAny(*a.Fallback, in.Blocked) {
			t.Fatalf("AP %d fallback %v inside the quarantine", id, *a.Fallback)
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
	in.Blocked = map[int]bool{}
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		if c.Number < 149 {
			in.Blocked[c.Number] = true
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
	in2.Blocked = map[int]bool{}
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		in2.Blocked[c.Number] = true
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
	in.ChannelNoise = map[int]float64{149: 0.7, 153: 0.7, 157: 0.7, 161: 0.7}
	p := newPlanner(DefaultConfig(), in)
	ni := p.idOf(noisy)
	qi := p.idOf(quiet)
	if p.logNodeP(0, ni) >= p.logNodeP(0, qi) {
		t.Fatalf("noisy channel scored %f >= quiet %f", p.logNodeP(0, ni), p.logNodeP(0, qi))
	}
}

// TestChannelNoiseCapsAtFullOccupancy: noise on top of external WiFi
// utilization saturates at 1 rather than overflowing the airtime model.
func TestChannelNoiseCapsAtFullOccupancy(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.APs[0].ExternalUtil = map[int]float64{149: 0.8}
	in.ChannelNoise = map[int]float64{149: 0.9}
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
	n.ChannelNoise = map[int]float64{36: 0.4}
	if n.Digest() == d0 {
		t.Fatal("ChannelNoise does not affect the digest")
	}
	n2 := chainInput(2, spectrum.W80, 1.0)
	n2.ChannelNoise = map[int]float64{36: 0.5}
	if n2.Digest() == n.Digest() {
		t.Fatal("noise level does not affect the digest")
	}

	// Map iteration order must not leak into the digest.
	m1 := chainInput(2, spectrum.W80, 1.0)
	m1.Blocked = blockSubs(52, 56, 60, 64, 100, 104)
	m1.ChannelNoise = map[int]float64{36: 0.1, 40: 0.2, 149: 0.3}
	m2 := chainInput(2, spectrum.W80, 1.0)
	m2.Blocked = blockSubs(104, 100, 64, 60, 56, 52)
	m2.ChannelNoise = map[int]float64{149: 0.3, 40: 0.2, 36: 0.1}
	if m1.Digest() != m2.Digest() {
		t.Fatal("digest depends on map construction order")
	}
}

// TestSanitizeQuarantineFields: sanitation canonicalizes false Blocked
// entries away (so equivalent quarantine states digest identically) and
// clamps noise into [0, 1].
func TestSanitizeQuarantineFields(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.Blocked = map[int]bool{52: true, 56: false}
	in.ChannelNoise = map[int]float64{36: 1.7, 40: -0.2, 44: 0.5}
	fixes := in.Sanitize()
	if fixes == 0 {
		t.Fatal("sanitize reported no fixes")
	}
	if _, ok := in.Blocked[56]; ok {
		t.Fatal("false Blocked entry survived sanitation")
	}
	if !in.Blocked[52] {
		t.Fatal("true Blocked entry lost")
	}
	if in.ChannelNoise[36] != 1 {
		t.Fatalf("over-unity noise = %v, want clamped to 1", in.ChannelNoise[36])
	}
	if _, ok := in.ChannelNoise[40]; ok {
		t.Fatal("negative noise entry survived sanitation")
	}
	if in.ChannelNoise[44] != 0.5 {
		t.Fatal("valid noise entry mutated")
	}

	// Canonical equivalence: {52: true, 56: false} digests like {52: true}.
	a := chainInput(1, spectrum.W80, 1.0)
	a.Blocked = map[int]bool{52: true, 56: false}
	a.Sanitize()
	b := chainInput(1, spectrum.W80, 1.0)
	b.Blocked = map[int]bool{52: true}
	b.Sanitize()
	if a.Digest() != b.Digest() {
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
	var below149, nonDFS map[int]bool = map[int]bool{}, map[int]bool{}
	for _, c := range spectrum.Channels(spectrum.Band5, spectrum.W20, true) {
		if c.Number < 149 {
			below149[c.Number] = true
		}
		if !c.DFS {
			nonDFS[c.Number] = true
		}
	}
	quarantines := []struct {
		name     string
		blocked  map[int]bool
		lastRung bool // every non-DFS channel is quarantined
	}{{"none", nil, false}, {"partial", below149, false}, {"every non-DFS struck", nonDFS, true}}

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

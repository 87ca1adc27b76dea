package turboca

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// planEqual reports whether two plans are byte-identical: same AP set,
// same channels, same fallbacks.
func planEqual(a, b Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for id, aa := range a {
		if ba, ok := b[id]; !ok || aa != ba {
			return false
		}
	}
	return true
}

// TestParallelEquivalence is the determinism contract: on a 200-AP fleet,
// RunNBO with Workers ∈ {1, 4, 8} and the same seed must return identical
// Plan, LogNetP, Switches, and Rounds. Run under -race (see the Makefile's
// verify target) this also proves the worker pool is data-race free.
func TestParallelEquivalence(t *testing.T) {
	in := chainInput(200, spectrum.W80, 1.0)
	var ref Result
	for i, w := range []int{1, 4, 8} {
		cfg := DefaultConfig()
		cfg.Workers = w
		res := RunNBO(cfg, in, rand.New(rand.NewSource(1234)), []int{2, 1, 0})
		if i == 0 {
			ref = res
			if !res.Improved || len(res.Plan) == 0 {
				t.Fatal("reference run found no plan; test would be vacuous")
			}
			continue
		}
		if res.LogNetP != ref.LogNetP {
			t.Errorf("workers=%d LogNetP %v != workers=1 %v", w, res.LogNetP, ref.LogNetP)
		}
		if res.Switches != ref.Switches || res.Rounds != ref.Rounds || res.Improved != ref.Improved {
			t.Errorf("workers=%d result header (%d, %d, %v) != workers=1 (%d, %d, %v)",
				w, res.Switches, res.Rounds, res.Improved, ref.Switches, ref.Rounds, ref.Improved)
		}
		if !planEqual(res.Plan, ref.Plan) {
			t.Errorf("workers=%d plan differs from workers=1", w)
		}
	}
}

// localOptimumInput reproduces §4.3.2's two-AP trap: A sits on the clean
// channel B needs, B is stuck next to an interferer; i=0 cannot fix it but
// an i=1 pass (which ignores both current assignments) can.
func localOptimumInput() Input {
	ch36, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	ch149, _ := spectrum.ChannelAt(spectrum.Band5, 149, spectrum.W20)
	in := Input{Band: spectrum.Band5, AllowDFS: false, MaxWidth: spectrum.W20}
	mk := func(id int, cur spectrum.Channel, ext []float64) APView {
		return APView{
			ID: id, Current: cur, MaxWidth: spectrum.W20, HasClients: true,
			CSAFraction: 1, Load: 1,
			WidthLoad:    [4]float64{1},
			Neighbors:    []int{1 - id},
			ExternalUtil: ext,
		}
	}
	in.APs = []APView{
		mk(0, ch36, nil),
		mk(1, ch149, subRow(spectrum.Band5, map[int]float64{149: 0.9})),
	}
	return in
}

// oldBestNetP emulates the pre-fix RunNBO exactly — same planner, same
// per-round RNG streams, but no incumbent adoption between hop levels (the
// old copy of bestAssign into p.assign was immediately erased by nbo, so
// every level replanned from the on-air channels).
func oldBestNetP(cfg Config, in Input, seed int64, hops []int) float64 {
	p := newPlanner(cfg, in)
	rng := rand.New(rand.NewSource(seed))
	base := rng.Int63()
	runs := cfg.Runs
	if runs <= 0 {
		runs = 2 + len(in.APs)/100
	}
	best := p.logNetP()
	for li, h := range hops {
		for r := 0; r < runs; r++ {
			rr := rand.New(rand.NewSource(roundSeed(base, li, r)))
			p.nbo(rr, h)
			if s := p.logNetP(); s > best {
				best = s
			}
		}
	}
	return best
}

// TestHopRefinementAdoptsIncumbent is the regression test for the dead
// hop-level refinement: after a hop level finds a winner, the next level
// must start from that winner, not from the on-air channels.
func TestHopRefinementAdoptsIncumbent(t *testing.T) {
	in := localOptimumInput()
	cfg := DefaultConfig()
	cfg.Runs = 6
	cfg.Workers = 1

	var incumbents [][]spectrum.ID
	res := runNBO(cfg, in, rand.New(rand.NewSource(99)), []int{1, 0}, nboHooks{onLevel: func(hop int, inc []spectrum.ID) {
		incumbents = append(incumbents, inc)
	}})
	if len(incumbents) != 2 {
		t.Fatalf("onLevel fired %d times, want 2", len(incumbents))
	}

	// The i=1 level must have freed B from the dirty ch149 and adopted
	// that winner as the incumbent — the state the i=0 level starts from.
	p := newPlanner(cfg, in)
	afterDeep := incumbents[0]
	if afterDeep[1] == p.onAir[1] {
		t.Fatalf("hop-level refinement did not adopt the i=1 winner: B's incumbent still on-air channel %v",
			p.onAir[1].Channel())
	}
	if got := afterDeep[1].Channel(); got.Number == 149 {
		t.Fatalf("adopted incumbent left B on the dirty channel: %v", got)
	}
	if b := res.Plan[1].Channel; b.Number == 149 {
		t.Fatalf("final plan left B on the dirty channel: %v", b)
	}

	// And the fixed engine must reach at least the old (no-adoption)
	// implementation's NetP under identical per-round RNG streams.
	old := oldBestNetP(cfg, in, 99, []int{1, 0})
	if res.LogNetP < old {
		t.Fatalf("refined NetP %f < old implementation's %f", res.LogNetP, old)
	}
}

// TestEmptyCurrentNotInterned covers the newPlanner fix: an AP that has
// never been assigned (zero-value Current) must not inject a bogus channel
// into the interned table, must not anchor a switch penalty, and its first
// assignment must not count as a switch.
func TestEmptyCurrentNotInterned(t *testing.T) {
	in := chainInput(4, spectrum.W80, 1.0)
	in.APs[2].Current = spectrum.Channel{} // never assigned
	p := newPlanner(DefaultConfig(), in)
	if p.onAir[2] != spectrum.None || p.current[2] != spectrum.None {
		t.Fatalf("empty Current interned as %d", p.onAir[2])
	}

	// An on-band channel the US table does not know is unassigned too.
	off := chainInput(2, spectrum.W80, 1.0)
	off.APs[0].Current = spectrum.Channel{Band: spectrum.Band5, Number: 37, Width: spectrum.W20}
	if po := newPlanner(DefaultConfig(), off); po.onAir[0] != spectrum.None {
		t.Fatal("off-table Current resolved to a channel")
	}

	// A malformed width must be rejected too, not only the zero value.
	bad := chainInput(2, spectrum.W80, 1.0)
	bad.APs[0].Current = spectrum.Channel{Band: spectrum.Band5, Number: 36, Width: 13}
	pb := newPlanner(DefaultConfig(), bad)
	if pb.onAir[0] != spectrum.None {
		t.Fatal("invalid-width Current interned")
	}

	res := RunNBO(DefaultConfig(), in, rand.New(rand.NewSource(3)), []int{1, 0})
	a, ok := res.Plan[2]
	if !ok {
		t.Fatal("never-assigned AP got no channel")
	}
	if !a.Channel.Width.Valid() {
		t.Fatalf("never-assigned AP got bogus channel %v", a.Channel)
	}
	// Count switches by hand: AP 2's first assignment is free.
	manual := 0
	for id, pa := range res.Plan {
		cur := in.APs[id].Current
		if !cur.Width.Valid() {
			continue
		}
		if cur.Number != pa.Channel.Number || cur.Width != pa.Channel.Width {
			manual++
		}
	}
	if res.Switches != manual {
		t.Fatalf("Switches = %d counts the first-ever assignment, want %d", res.Switches, manual)
	}
}

// TestGreenfieldGetsAssigned is the regression test for the baseline
// scoring bug: unassigned APs used to be skipped by logNetP, so the
// all-unassigned baseline scored a perfect 0 while every real plan scored
// negative — on a greenfield network RunNBO could never accept a first
// assignment. Unassigned APs now score at their NodeP floor, so any round
// that gives them a channel beats the baseline.
func TestGreenfieldGetsAssigned(t *testing.T) {
	in := chainInput(12, spectrum.W80, 1.0)
	for i := range in.APs {
		in.APs[i].Current = spectrum.Channel{} // never assigned
	}
	res := RunNBO(DefaultConfig(), in, rand.New(rand.NewSource(7)), []int{1, 0})
	if !res.Improved {
		t.Fatal("greenfield network: RunNBO kept the empty baseline")
	}
	if len(res.Plan) != len(in.APs) {
		t.Fatalf("greenfield plan covers %d of %d APs", len(res.Plan), len(in.APs))
	}
	if res.Switches != 0 {
		t.Fatalf("first-ever assignments counted as %d switches", res.Switches)
	}
}

// TestPartiallyFreshAPGetsAssigned covers the partial form of the same
// bug: one never-assigned AP among assigned ones must not make the
// baseline look better than plans that bring the new AP on-air.
func TestPartiallyFreshAPGetsAssigned(t *testing.T) {
	in := chainInput(8, spectrum.W80, 1.0)
	in.APs[3].Current = spectrum.Channel{} // the one new AP
	res := RunNBO(DefaultConfig(), in, rand.New(rand.NewSource(7)), []int{1, 0})
	if !res.Improved {
		t.Fatal("network with a fresh AP: RunNBO kept the baseline")
	}
	if _, ok := res.Plan[3]; !ok {
		t.Fatal("fresh AP left unassigned by the accepted plan")
	}
}

// TestServiceDuplicateBandPlannedOnce: a caller-supplied Bands slice with a
// duplicate entry must plan the band once per invocation — not snapshot
// its environment twice or hand the same *rand.Rand to two goroutines
// (under -race the old code was a data race).
func TestServiceDuplicateBandPlannedOnce(t *testing.T) {
	env := func(band spectrum.Band) Input { return chainInput(6, spectrum.W80, 1.0) }
	run := func(bands []spectrum.Band) *Service {
		svc := NewService(DefaultConfig(), env, nil, 17)
		svc.Bands = bands
		svc.RunOnce([]int{1, 0})
		return svc
	}
	dup := run([]spectrum.Band{spectrum.Band5, spectrum.Band5})
	solo := run([]spectrum.Band{spectrum.Band5})
	if dup.RunsTotal != 1 {
		t.Fatalf("duplicate band planned %d times, want 1", dup.RunsTotal)
	}
	if dup.LastLogNetP[spectrum.Band5] != solo.LastLogNetP[spectrum.Band5] {
		t.Fatalf("duplicate Bands entry perturbed the band's stream: %v vs %v",
			dup.LastLogNetP[spectrum.Band5], solo.LastLogNetP[spectrum.Band5])
	}
}

// input24 builds an n-AP 2.4 GHz chain for multi-band service tests.
func input24(n int) Input {
	ch6, _ := spectrum.ChannelAt(spectrum.Band2G4, 6, spectrum.W20)
	in := Input{Band: spectrum.Band2G4, MaxWidth: spectrum.W20}
	for i := 0; i < n; i++ {
		v := APView{
			ID: i, Current: ch6, MaxWidth: spectrum.W20, HasClients: true,
			CSAFraction: 0.5, Load: 1,
			WidthLoad: [4]float64{1},
		}
		if i > 0 {
			v.Neighbors = append(v.Neighbors, i-1)
		}
		if i < n-1 {
			v.Neighbors = append(v.Neighbors, i+1)
		}
		in.APs = append(in.APs, v)
	}
	return in
}

// TestServiceBandStreamsIndependent pins the Service.RunOnce fix: a band's
// plan sequence must depend only on how many times that band was planned,
// not on which other bands the service manages (the old shared *rand.Rand
// made 5 GHz results change when 2.4 GHz consumed draws first).
func TestServiceBandStreamsIndependent(t *testing.T) {
	env := func(band spectrum.Band) Input {
		if band == spectrum.Band5 {
			return chainInput(6, spectrum.W80, 1.0)
		}
		return input24(6)
	}
	run := func(bands []spectrum.Band) []float64 {
		svc := NewService(DefaultConfig(), env, nil, 11)
		svc.Bands = bands
		var seq []float64
		for i := 0; i < 3; i++ {
			svc.RunOnce([]int{1, 0})
			seq = append(seq, svc.LastLogNetP[spectrum.Band5])
		}
		return seq
	}
	both := run([]spectrum.Band{spectrum.Band2G4, spectrum.Band5})
	solo := run([]spectrum.Band{spectrum.Band5})
	for i := range solo {
		if both[i] != solo[i] {
			t.Fatalf("5 GHz plan %d depends on other bands: %v vs %v", i, both[i], solo[i])
		}
	}
}

// TestRunNBOSingleRNGDraw pins the seeding contract RunNBO's determinism
// rests on: the caller's rng is consumed exactly once per invocation, so
// worker scheduling can never reorder draws.
func TestRunNBOSingleRNGDraw(t *testing.T) {
	in := chainInput(8, spectrum.W80, 1.0)
	a := rand.New(rand.NewSource(5))
	b := rand.New(rand.NewSource(5))
	RunNBO(DefaultConfig(), in, a, []int{2, 1, 0})
	b.Int63()
	if a.Int63() != b.Int63() {
		t.Fatal("RunNBO consumed more than one draw from the caller's rng")
	}
}

// BenchmarkRunNBO measures one full i=0 invocation over a ~600-AP network
// (the paper's UNet scale) at several worker counts; the plan produced is
// identical at every count, so ns/op differences are pure scheduling.
func BenchmarkRunNBO(b *testing.B) {
	in := chainInput(600, spectrum.W80, 1.0)
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Workers = w
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				RunNBO(cfg, in, rand.New(rand.NewSource(42)), []int{0})
			}
		})
	}
}

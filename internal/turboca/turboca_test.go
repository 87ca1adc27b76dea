package turboca

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// subRow builds band's sub-channel row from values keyed by 20 MHz channel
// number, the way the tests name channels.
func subRow(band spectrum.Band, byNumber map[int]float64) []float64 {
	row := make([]float64, len(spectrum.Channels(band, spectrum.W20, true)))
	for n, u := range byNumber {
		row[bits.TrailingZeros64(spectrum.Sub20Mask(band, n))] = u
	}
	return row
}

// chainInput builds n APs in a line where consecutive APs are neighbors,
// all on the same initial channel — the classic worst-case starting plan.
func chainInput(n int, maxW spectrum.Width, load float64) Input {
	start, _ := spectrum.ChannelAt(spectrum.Band5, 42, spectrum.W80)
	in := Input{Band: spectrum.Band5, AllowDFS: true, MaxWidth: maxW}
	for i := 0; i < n; i++ {
		v := APView{
			ID:          i,
			Current:     start,
			MaxWidth:    spectrum.W80,
			HasClients:  true,
			CSAFraction: 0.8,
			Load:        load,
			WidthLoad:   [4]float64{0.3, 0.3, 0.4},
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

func rng() *rand.Rand { return rand.New(rand.NewSource(99)) }

func TestNodePPenalizesCoChannelNeighbors(t *testing.T) {
	in := chainInput(2, spectrum.W80, 1.0)
	p := newPlanner(DefaultConfig(), in)
	same := p.idOf(in.APs[0].Current)
	clean, _ := spectrum.ChannelAt(spectrum.Band5, 155, spectrum.W80)
	cleanIdx := p.idOf(clean)
	// AP0's NodeP on the shared channel must be worse than on a clean
	// one (before any penalty: both differ from... same IS current, so
	// clean pays the switch penalty yet must still win).
	onShared := nodePAt(p, 0, same)
	onClean := nodePAt(p, 0, cleanIdx)
	if onClean <= onShared {
		t.Fatalf("clean channel %f <= shared %f", onClean, onShared)
	}
}

// TestNodePWidthProperty checks §4.4.1 property (ii): if no client
// supports wider widths, NodeP does not reward wider channels.
func TestNodePWidthProperty(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.APs[0].WidthLoad = [4]float64{1} // 20 MHz-only clients
	in.APs[0].Current, _ = spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	p := newPlanner(DefaultConfig(), in)
	c20 := p.idOf(in.APs[0].Current)
	c80, _ := spectrum.ChannelAt(spectrum.Band5, 42, spectrum.W80)
	i80 := p.idOf(c80)
	// The 80 MHz assignment covers the same primary; with only-20MHz
	// clients its NodeP must not beat staying at 20 MHz (it also pays a
	// switch penalty).
	if nodePAt(p, 0, i80) > nodePAt(p, 0, c20) {
		t.Fatal("NodeP increased for wider channel despite 20MHz-only clients")
	}
}

// TestZeroLoadAPIndifferent checks the lemma behind §4.4.1: an AP with no
// load has NodeP = 1 (log 0) everywhere, so it freely vacates channels.
func TestZeroLoadAPIndifferent(t *testing.T) {
	in := chainInput(1, spectrum.W80, 0)
	in.APs[0].Load = 0
	p := newPlanner(DefaultConfig(), in)
	for _, c := range p.adm.open[0] {
		if got := nodePAt(p, 0, c); got != 0 {
			t.Fatalf("zero-load NodeP = %f on %v", got, c.Channel())
		}
	}
}

func TestNBOSeparatesNeighbors(t *testing.T) {
	in := chainInput(6, spectrum.W80, 1.0)
	res := RunNBO(DefaultConfig(), in, rng(), []int{1, 0})
	if !res.Improved {
		t.Fatal("NBO failed to improve an all-same-channel plan")
	}
	// No two neighbors may share overlapping channels if enough spectrum
	// exists (6 APs in a chain, 6+ disjoint 80 MHz channels with DFS).
	for i := 0; i < 5; i++ {
		a := res.Plan[i].Channel
		b := res.Plan[i+1].Channel
		if a.Overlaps(b) {
			t.Fatalf("neighbors %d/%d overlap: %v %v", i, i+1, a, b)
		}
	}
}

func TestNetPNeverRegresses(t *testing.T) {
	cfg := DefaultConfig()
	in := chainInput(8, spectrum.W80, 1.0)
	before := NetP(cfg, in, Plan{})
	res := RunNBO(cfg, in, rng(), []int{0})
	if res.LogNetP < before {
		t.Fatalf("NetP regressed: %f -> %f", before, res.LogNetP)
	}
	// And the reported score matches an independent evaluation.
	if got := NetP(cfg, in, res.Plan); got < res.LogNetP-1e-6 || got > res.LogNetP+1e-6 {
		t.Fatalf("reported %f, re-evaluated %f", res.LogNetP, got)
	}
}

// TestLocalOptimumEscape reproduces §4.3.2's two-AP example: A sits on a
// clean channel, B's only alternative is occupied by A; i=0 cannot fix it
// but a deeper pass (ignoring current assignments) can.
func TestLocalOptimumEscape(t *testing.T) {
	ch36, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	ch149, _ := spectrum.ChannelAt(spectrum.Band5, 149, spectrum.W20)
	in := Input{Band: spectrum.Band5, AllowDFS: false, MaxWidth: spectrum.W20}
	// An interferer sits near B on ch149 (B's current channel).
	mk := func(id int, cur spectrum.Channel, ext []float64) APView {
		return APView{
			ID: id, Current: cur, MaxWidth: spectrum.W20, HasClients: true,
			CSAFraction: 1, Load: 1,
			WidthLoad:    [4]float64{1},
			Neighbors:    []int{1 - id},
			ExternalUtil: ext,
		}
	}
	// Per the paper, the interferer is near B only: A hears nothing on
	// 149, B hears 0.9.
	in.APs = []APView{
		mk(0, ch36, nil),
		mk(1, ch149, subRow(spectrum.Band5, map[int]float64{149: 0.9})), // B: stuck on the dirty 149
	}

	cfg := DefaultConfig()
	cfg.Runs = 6
	res := RunNBO(cfg, in, rng(), []int{1, 0})
	// Globally optimal: someone ends on 36 and someone on a channel that
	// is not the dirty 149 for B. B must escape 149.
	b := res.Plan[1].Channel
	if b.Number == 149 {
		t.Fatalf("B stuck on dirty channel: %v / %v", res.Plan[0].Channel, b)
	}
}

func TestDFSNeverAssignedWithClients(t *testing.T) {
	in := chainInput(10, spectrum.W80, 1.0)
	for i := range in.APs {
		in.APs[i].HasClients = true
	}
	res := RunNBO(DefaultConfig(), in, rng(), []int{2, 1, 0})
	for id, a := range res.Plan {
		if a.Channel.DFS {
			t.Fatalf("AP %d with clients moved to DFS %v", id, a.Channel)
		}
	}
}

func TestDFSFallbackMaintained(t *testing.T) {
	in := chainInput(10, spectrum.W80, 1.0)
	for i := range in.APs {
		in.APs[i].HasClients = false // nighttime: DFS allowed
	}
	res := RunNBO(DefaultConfig(), in, rng(), []int{1, 0})
	sawDFS := false
	for id, a := range res.Plan {
		if !a.Channel.DFS {
			continue
		}
		sawDFS = true
		if a.Fallback.DFS || a.Fallback.Width == 0 {
			t.Fatalf("AP %d fallback invalid: %v", id, a.Fallback)
		}
	}
	if !sawDFS {
		t.Skip("no DFS assignments this seed; nothing to verify")
	}
}

func TestMaxWidthCap(t *testing.T) {
	in := chainInput(4, spectrum.W40, 1.0)
	res := RunNBO(DefaultConfig(), in, rng(), []int{0})
	for id, a := range res.Plan {
		if a.Channel.Width > spectrum.W40 {
			t.Fatalf("AP %d exceeds width cap: %v", id, a.Channel)
		}
	}
}

func TestReservedCAFixedWidthAndSpread(t *testing.T) {
	in := chainInput(6, spectrum.W80, 1.0)
	res := RunReservedCA(DefaultConfig(), in, spectrum.W20)
	if len(res.Plan) != 6 {
		t.Fatalf("plan covers %d APs", len(res.Plan))
	}
	for id, a := range res.Plan {
		if a.Channel.Width != spectrum.W20 {
			t.Fatalf("AP %d width %v, want fixed 20 MHz", id, a.Channel.Width)
		}
	}
	// Sequential greedy still avoids its immediate neighbors.
	for i := 0; i < 5; i++ {
		if res.Plan[i].Channel.Number == res.Plan[i+1].Channel.Number {
			t.Fatalf("ReservedCA left neighbors co-channel at %d", i)
		}
	}
}

// TestTurboCABeatsReservedCAOnNetP: on a contended topology with
// wide-capable clients, TurboCA's NetP must be at least as good as
// ReservedCA's 20 MHz plan (it optimizes NetP directly).
func TestTurboCABeatsReservedCAOnNetP(t *testing.T) {
	cfg := DefaultConfig()
	in := chainInput(12, spectrum.W80, 1.5)
	reserved := RunReservedCA(cfg, in, spectrum.W20)
	turbo := RunNBO(cfg, in, rng(), []int{2, 1, 0})
	if turbo.LogNetP < reserved.LogNetP {
		t.Fatalf("TurboCA NetP %f < ReservedCA %f", turbo.LogNetP, reserved.LogNetP)
	}
}

func TestPenaltyStabilizesPlan(t *testing.T) {
	// Re-running NBO on an already-good plan must not churn channels:
	// the switch penalty makes "stay" the best choice.
	cfg := DefaultConfig()
	in := chainInput(8, spectrum.W80, 1.0)
	first := RunNBO(cfg, in, rng(), []int{1, 0})
	// Install the plan as current and re-run.
	for i := range in.APs {
		if a, ok := first.Plan[in.APs[i].ID]; ok {
			in.APs[i].Current = a.Channel
		}
	}
	second := RunNBO(cfg, in, rng(), []int{0})
	if second.Switches > 2 {
		t.Fatalf("stable input produced %d switches", second.Switches)
	}
}

func TestHighUtilizationPenaltyBoost(t *testing.T) {
	in := chainInput(1, spectrum.W80, 1.0)
	in.APs[0].Utilization = 0.95
	boosted := newPlanner(DefaultConfig(), in)
	in2 := chainInput(1, spectrum.W80, 1.0)
	in2.APs[0].Utilization = 0.3
	normal := newPlanner(DefaultConfig(), in2)
	if boosted.penBase[0] <= normal.penBase[0] {
		t.Fatal("§4.5.1 high-utilization penalty boost missing")
	}
}

func TestServiceSchedule(t *testing.T) {
	engine := sim.NewEngine(5)
	env := func(band spectrum.Band) Input {
		if band != spectrum.Band5 {
			return Input{}
		}
		return chainInput(4, spectrum.W80, 1.0)
	}
	svc := NewService(DefaultConfig(), env, nil, 5)
	svc.Bands = []spectrum.Band{spectrum.Band5}
	svc.Start(engine)
	// Count invocations through RunsTotal.
	engine.RunUntil(24*sim.Hour + time1)
	svc.Stop()
	// 96 fast + 8 mid + 1 deep invocations in the first 24 h.
	if svc.RunsTotal != 96+8+1 {
		t.Fatalf("RunsTotal = %d, want 105", svc.RunsTotal)
	}
}

const time1 = sim.Minute

func TestServiceAppliesImprovedPlans(t *testing.T) {
	engine := sim.NewEngine(6)
	start := chainInput(4, spectrum.W80, 1.0).APs[0].Current
	env := func(band spectrum.Band) Input {
		if band != spectrum.Band5 {
			return Input{}
		}
		return chainInput(4, spectrum.W80, 1.0) // always the bad plan: always improvable
	}
	var applied []Plan
	svc := NewService(DefaultConfig(), env, func(band spectrum.Band, plan Plan) {
		if band != spectrum.Band5 {
			t.Errorf("applied a %v plan", band)
		}
		applied = append(applied, plan)
	}, 6)
	svc.Bands = []spectrum.Band{spectrum.Band5}
	svc.Start(engine)
	engine.RunUntil(sim.Hour)
	svc.Stop()
	if len(applied) == 0 || len(applied) != svc.ImprovedTotal {
		t.Fatalf("%d plans applied, %d improved", len(applied), svc.ImprovedTotal)
	}
	for i, plan := range applied {
		moved := 0
		for _, a := range plan {
			if a.Channel != start {
				moved++
			}
		}
		if len(plan) != 4 || moved == 0 {
			t.Errorf("plan %d: %d assignments, %d off the co-channel start", i, len(plan), moved)
		}
	}
}

func TestPlanClone(t *testing.T) {
	ch, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	p := Plan{1: {Channel: ch}}
	c := p.Clone()
	c[2] = Assignment{Channel: ch}
	if len(p) != 1 {
		t.Fatal("clone aliases original")
	}
}

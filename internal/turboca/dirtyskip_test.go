package turboca

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/spectrum"
)

// skipHarness drives one Service against a closed-loop environment: the
// input is a pure function of the harness state, and Apply feeds accepted
// plans back into it — exactly the backend's shape, so the service
// converges to fast-pass no-ops the way a steady-state network does.
type skipHarness struct {
	svc   *Service
	cur   map[int]spectrum.Channel
	loads map[int]float64
	plans []Plan
}

const skipHarnessAPs = 8

func newSkipHarness(seed int64, dirtySkip bool) *skipHarness {
	h := &skipHarness{cur: map[int]spectrum.Channel{}, loads: map[int]float64{}}
	for id := 0; id < skipHarnessAPs; id++ {
		h.loads[id] = 0.5 + float64(id)*0.3
	}
	env := func(band spectrum.Band) Input {
		in := Input{Band: band, AllowDFS: true, MaxWidth: spectrum.W40}
		for id := 0; id < skipHarnessAPs; id++ {
			v := APView{
				ID:           id,
				Current:      h.cur[id],
				MaxWidth:     spectrum.W40,
				HasClients:   true,
				CSAFraction:  0.8,
				Load:         h.loads[id],
				WidthLoad:    [4]float64{1},
				ExternalUtil: subRow(band, map[int]float64{36: 0.1 * float64(id%3)}),
			}
			if id > 0 {
				v.Neighbors = append(v.Neighbors, id-1)
			}
			if id < skipHarnessAPs-1 {
				v.Neighbors = append(v.Neighbors, id+1)
			}
			in.APs = append(in.APs, v)
		}
		return in
	}
	apply := func(band spectrum.Band, plan Plan) {
		h.plans = append(h.plans, plan.Clone())
		for id, a := range plan {
			h.cur[id] = a.Channel
		}
	}
	cfg := DefaultConfig()
	cfg.Runs = 3
	h.svc = NewService(cfg, env, apply, seed)
	h.svc.Bands = []spectrum.Band{spectrum.Band5}
	h.svc.DirtySkip = dirtySkip
	return h
}

// stateEqual asserts the observable outcomes of the skipping and
// non-skipping twins are byte-identical: every counter, the last scores,
// and the full sequence of applied plans.
func stateEqual(t *testing.T, step string, a, b *skipHarness) {
	t.Helper()
	sa, sb := a.svc, b.svc
	if sa.RunsTotal != sb.RunsTotal || sa.ImprovedTotal != sb.ImprovedTotal ||
		sa.DegradedTotal != sb.DegradedTotal || sa.SanitizedTotal != sb.SanitizedTotal {
		t.Fatalf("%s: counters diverged: skip=(%d,%d,%d,%d) full=(%d,%d,%d,%d)", step,
			sa.RunsTotal, sa.ImprovedTotal, sa.DegradedTotal, sa.SanitizedTotal,
			sb.RunsTotal, sb.ImprovedTotal, sb.DegradedTotal, sb.SanitizedTotal)
	}
	for band, v := range sb.LastLogNetP {
		if got := sa.LastLogNetP[band]; got != v {
			t.Fatalf("%s: LastLogNetP[%v] diverged: skip=%v full=%v", step, band, got, v)
		}
	}
	if len(a.plans) != len(b.plans) {
		t.Fatalf("%s: %d applied plans with skipping, %d without", step, len(a.plans), len(b.plans))
	}
	for i := range a.plans {
		if !planIdentical(a.plans[i], b.plans[i]) {
			t.Fatalf("%s: applied plan %d differs between twins", step, i)
		}
	}
}

func planIdentical(a, b Plan) bool {
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

// TestDirtySkipProvablyIdentical is the satellite-4 property: a service
// with DirtySkip enabled must be observationally byte-identical to its
// unskipping twin at every step — skipped passes are pure replays — while
// actually skipping once the network is steady; any telemetry change must
// mark the band dirty and force execution; deep schedules never skip.
func TestDirtySkipProvablyIdentical(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			skip := newSkipHarness(seed, true)
			full := newSkipHarness(seed, false)

			// Steady-state fast passes: the closed loop converges, after
			// which every unchanged-telemetry pass is a provable no-op.
			for step := 0; step < 10; step++ {
				skip.svc.RunOnce([]int{0})
				full.svc.RunOnce([]int{0})
				stateEqual(t, fmt.Sprintf("fast step %d", step), skip, full)
			}
			if skip.svc.SkippedTotal == 0 {
				t.Fatal("no fast pass was ever skipped on a steady-state network")
			}
			if full.svc.SkippedTotal != 0 {
				t.Fatal("twin without DirtySkip skipped a pass")
			}

			// A deep schedule must execute even with unchanged telemetry.
			before := skip.svc.SkippedTotal
			skip.svc.RunOnce([]int{1, 0})
			full.svc.RunOnce([]int{1, 0})
			stateEqual(t, "deep pass", skip, full)
			if skip.svc.SkippedTotal != before {
				t.Fatal("deep schedule was skipped")
			}

			// Re-converge, then change telemetry: the next fast pass must
			// run (the band is dirty), and the twins must still agree.
			for step := 0; step < 4; step++ {
				skip.svc.RunOnce([]int{0})
				full.svc.RunOnce([]int{0})
			}
			stateEqual(t, "re-converged", skip, full)
			before = skip.svc.SkippedTotal
			beforeRuns := skip.svc.RunsTotal
			skip.loads[3] *= 1.5
			full.loads[3] *= 1.5
			skip.svc.RunOnce([]int{0})
			full.svc.RunOnce([]int{0})
			stateEqual(t, "after telemetry change", skip, full)
			if skip.svc.SkippedTotal != before {
				t.Fatal("pass with changed telemetry was skipped")
			}
			if skip.svc.RunsTotal != beforeRuns+1 {
				t.Fatalf("RunsTotal advanced by %d, want 1", skip.svc.RunsTotal-beforeRuns)
			}
		})
	}
}

// TestDigestCanonical pins the digest's determinism and sensitivity:
// identical inputs hash identically, every planner-read field perturbs
// the hash, and so does every one-bit flip of a folded word and swapping
// the values of two adjacent fields.
func TestDigestCanonical(t *testing.T) {
	mk := func() Input {
		return newSkipHarness(1, false).svc.Env(spectrum.Band5)
	}
	base := mk().Digest()
	for i := 0; i < 20; i++ {
		if got := mk().Digest(); got != base {
			t.Fatalf("digest unstable across identical inputs: %x vs %x", got, base)
		}
	}
	perturb := []func(*Input){
		func(in *Input) { in.AllowDFS = !in.AllowDFS },
		func(in *Input) { in.MaxWidth = spectrum.W80 },
		func(in *Input) { in.APs[0].Load += 0.25 },
		func(in *Input) { in.APs[0].HasClients = false },
		func(in *Input) { in.APs[0].Stale = true },
		func(in *Input) { in.APs[0].Pinned = true },
		func(in *Input) { in.APs[0].Utilization += 0.1 },
		func(in *Input) { in.APs[0].CSAFraction -= 0.1 },
		func(in *Input) { in.APs[0].ExternalUtil[1] = 0.5 }, // ch 40
		func(in *Input) { in.APs[0].WidthLoad[1] = 0.5 },
		func(in *Input) { in.APs[0].Neighbors = in.APs[0].Neighbors[:0] },
		func(in *Input) { in.APs[0].Current = in.APs[1].Current },
		func(in *Input) { in.APs = in.APs[:len(in.APs)-1] },
	}
	for i, f := range perturb {
		in := mk()
		in.APs[0].Current, _ = spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
		in.APs[1].Current, _ = spectrum.ChannelAt(spectrum.Band5, 44, spectrum.W20)
		ref := in.Digest()
		f(&in)
		if in.Digest() == ref {
			t.Errorf("perturbation %d did not change the digest", i)
		}
	}

	// One bit of one word: each of Load's 64 IEEE bits, and each bit of a
	// neighbor entry that is no position, which Digest folds as itself
	// (every flip of -1 is negative or MaxInt64, so none lands on one).
	flips := func(field string, set func(*Input, uint64), word uint64) {
		in := mk()
		set(&in, word)
		ref := in.Digest()
		for b := 0; b < 64; b++ {
			in := mk()
			set(&in, word^1<<b)
			if in.Digest() == ref {
				t.Errorf("flipping bit %d of %s did not change the digest", b, field)
			}
		}
	}
	flips("Load", func(in *Input, w uint64) { in.APs[0].Load = math.Float64frombits(w) }, math.Float64bits(mk().APs[0].Load))
	flips("a neighbor ID", func(in *Input, w uint64) { in.APs[0].Neighbors[0] = int(w) }, ^uint64(0))

	in := mk()
	ref := in.Digest()
	v := &in.APs[0]
	if v.CSAFraction == v.Load {
		t.Fatalf("CSAFraction and Load are both %v; swapping them checks nothing", v.Load)
	}
	v.CSAFraction, v.Load = v.Load, v.CSAFraction
	if in.Digest() == ref {
		t.Error("swapping CSAFraction and Load did not change the digest")
	}
}

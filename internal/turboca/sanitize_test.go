package turboca

import (
	"math"
	"slices"
	"testing"

	"repro/internal/spectrum"
)

// planAfterSanitize sanitizes the input, runs a full NBO invocation, and
// fails the test unless LogNetP is finite and the plan only assigns valid
// channels to known APs.
func planAfterSanitize(t *testing.T, in Input) Result {
	t.Helper()
	(&in).Sanitize()
	res := RunNBO(DefaultConfig(), in, rng(), []int{1, 0})
	if math.IsNaN(res.LogNetP) || math.IsInf(res.LogNetP, 0) {
		t.Fatalf("LogNetP = %f, want finite", res.LogNetP)
	}
	known := map[int]bool{}
	for i := range in.APs {
		known[in.APs[i].ID] = true
	}
	for id, a := range res.Plan {
		if !known[id] {
			t.Fatalf("plan assigns unknown AP %d", id)
		}
		if !a.Channel.Width.Valid() {
			t.Fatalf("plan gives AP %d an invalid channel %v", id, a.Channel)
		}
	}
	return res
}

func TestSanitizeNaNAndNegativeLoad(t *testing.T) {
	in := chainInput(4, spectrum.W80, 1.0)
	in.APs[0].Load = math.NaN()
	in.APs[1].Load = -3.7
	in.APs[2].Load = math.Inf(1)
	if fixes := (&in).Sanitize(); fixes != 3 {
		t.Fatalf("fixes = %d, want 3", fixes)
	}
	if in.APs[0].Load != 0 || in.APs[1].Load != 0 || in.APs[2].Load != maxSaneLoad {
		t.Fatalf("loads after sanitize: %f %f %f", in.APs[0].Load, in.APs[1].Load, in.APs[2].Load)
	}
	planAfterSanitize(t, in)
}

func TestSanitizeDuplicateIDs(t *testing.T) {
	in := chainInput(4, spectrum.W80, 1.0)
	dup := in.APs[2]
	dup.Load = 99 // would shadow the original if the copy won
	in.APs = append(in.APs, dup)
	(&in).Sanitize()
	if len(in.APs) != 4 {
		t.Fatalf("%d APs after dedup, want 4", len(in.APs))
	}
	if in.APs[2].Load == 99 {
		t.Fatal("duplicate replaced the first occurrence")
	}
	res := planAfterSanitize(t, in)
	if len(res.Plan) > 4 {
		t.Fatalf("plan covers %d APs", len(res.Plan))
	}
}

func TestSanitizeUnknownNeighbors(t *testing.T) {
	in := chainInput(3, spectrum.W80, 1.0)
	in.APs[0].Neighbors = append(in.APs[0].Neighbors, 999, -1, 0) // no positions + self-loop
	if fixes := (&in).Sanitize(); fixes != 3 {
		t.Fatalf("fixes = %d, want 3", fixes)
	}
	if got := in.APs[0].Neighbors; !slices.Equal(got, []int{1}) {
		t.Fatalf("neighbors %v survived sanitize, want [1]", got)
	}
	planAfterSanitize(t, in)
}

func TestSanitizeEmptyWidthLoad(t *testing.T) {
	in := chainInput(3, spectrum.W80, 1.0)
	in.APs[0].WidthLoad = [4]float64{}
	in.APs[1].WidthLoad = [4]float64{0, math.NaN(), -1, math.Inf(1)}
	if fixes := (&in).Sanitize(); fixes != 5 { // an empty mix; three entries and the mix they leave
		t.Fatalf("fixes = %d, want 5", fixes)
	}
	for i := 0; i < 2; i++ {
		if w := in.APs[i].WidthLoad; w != ([4]float64{1}) {
			t.Fatalf("AP %d width load %v, want all 20 MHz", i, w)
		}
	}
	planAfterSanitize(t, in)
}

func TestSanitizeUtilizationAndCSAClamped(t *testing.T) {
	in := chainInput(3, spectrum.W80, 1.0)
	in.APs[0].Utilization = math.NaN()
	in.APs[1].Utilization = 7.5
	in.APs[2].CSAFraction = -0.3
	(&in).Sanitize()
	if in.APs[0].Utilization != 0 || in.APs[1].Utilization != 1 || in.APs[2].CSAFraction != 0 {
		t.Fatalf("clamps failed: %f %f %f",
			in.APs[0].Utilization, in.APs[1].Utilization, in.APs[2].CSAFraction)
	}
	planAfterSanitize(t, in)
}

func TestSanitizeExternalUtilAndOffBandCurrent(t *testing.T) {
	in := chainInput(3, spectrum.W80, 1.0)
	in.APs[0].ExternalUtil = subRow(spectrum.Band5, map[int]float64{36: math.NaN(), 40: -1, 44: 2.0, 48: 0.5})
	in.APs[1].Current = spectrum.Channel{Band: spectrum.Band2G4, Number: 6, Width: spectrum.W20}
	// On-band, valid width, but ch37 is no US channel.
	in.APs[2].Current = spectrum.Channel{Band: spectrum.Band5, Number: 37, Width: spectrum.W20}
	(&in).Sanitize()
	ext := in.APs[0].ExternalUtil // ch 36, 40, 44, 48 are positions 0..3
	if ext[0] != 0 {
		t.Fatal("NaN external util survived")
	}
	if ext[1] != 0 {
		t.Fatal("negative external util survived")
	}
	if ext[2] != 1 || ext[3] != 0.5 {
		t.Fatalf("external util clamp: %v", ext)
	}
	if in.APs[1].Current != (spectrum.Channel{}) {
		t.Fatal("off-band current channel survived")
	}
	if in.APs[2].Current != (spectrum.Channel{}) {
		t.Fatal("off-table current channel survived")
	}
	planAfterSanitize(t, in)
}

func TestSanitizeCleanInputUntouched(t *testing.T) {
	in := chainInput(5, spectrum.W80, 1.0)
	if fixes := (&in).Sanitize(); fixes != 0 {
		t.Fatalf("clean input got %d fixes", fixes)
	}
}

func TestPinnedAPNeverMoves(t *testing.T) {
	in := chainInput(6, spectrum.W80, 1.0)
	in.APs[3].Pinned = true
	cur := in.APs[3].Current
	res := RunNBO(DefaultConfig(), in, rng(), []int{2, 1, 0})
	if !res.Improved {
		t.Fatal("no improvement on an all-same-channel chain")
	}
	a, ok := res.Plan[3]
	if !ok {
		t.Fatal("pinned AP missing from plan")
	}
	if a.Channel != cur {
		t.Fatalf("pinned AP moved %v -> %v", cur, a.Channel)
	}
	// The rest of the chain must still spread out around it.
	distinct := map[int]bool{}
	for id, p := range res.Plan {
		if id != 3 {
			distinct[p.Channel.Number] = true
		}
	}
	if len(distinct) < 2 {
		t.Fatalf("only %d distinct channels around the pinned AP", len(distinct))
	}
}

func TestStaleFractionAndDegradation(t *testing.T) {
	in := chainInput(4, spectrum.W80, 1.0)
	if f := in.StaleFraction(); f != 0 {
		t.Fatalf("fresh input stale fraction %f", f)
	}
	in.APs[0].Stale = true
	in.APs[1].Pinned = true
	if f := in.StaleFraction(); f != 0.5 {
		t.Fatalf("stale fraction %f, want 0.5", f)
	}

	svc := NewService(DefaultConfig(), func(band spectrum.Band) Input {
		if band != spectrum.Band5 {
			return Input{}
		}
		cp := chainInput(4, spectrum.W80, 1.0)
		cp.APs[0].Stale = true
		cp.APs[1].Stale = true
		cp.APs[2].Stale = true
		return cp
	}, nil, 5)
	svc.Bands = []spectrum.Band{spectrum.Band5}
	svc.MaxStaleFraction = 0.5
	svc.RunOnce([]int{2, 1, 0})
	if svc.DegradedTotal != 1 {
		t.Fatalf("DegradedTotal = %d, want 1", svc.DegradedTotal)
	}
	// Shallow-only schedules are never degraded.
	svc.RunOnce([]int{0})
	if svc.DegradedTotal != 1 {
		t.Fatalf("i=0 invocation counted as degraded")
	}
}

package turboca

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// refDeltaScore is ACC's score by definition — the planner's scoring path
// until accWalk/accScore factored it: put c on i, then sum i's NodeP and
// the NodeP of every neighbor that has a channel, each by its own walk.
func (p *planner) refDeltaScore(i int, c spectrum.ID) float64 {
	prev := p.assign[i]
	p.assign[i] = c
	score := p.logNodeP(i, c)
	for _, j := range p.neigh[i] {
		if p.ignore[j] {
			continue
		}
		nc := p.channelOf(j)
		if nc == spectrum.None {
			continue
		}
		score += p.logNodeP(j, nc)
	}
	p.assign[i] = prev
	return score
}

// hostileRow draws a sub-channel row as no producer builds one: nil, cut
// short of the band's subs channels or running past them, with NaN,
// negative and over-unity entries among the runs of plausible ones.
func hostileRow(r *rand.Rand, subs int) []float64 {
	if r.Intn(3) == 0 {
		return nil
	}
	row := make([]float64, r.Intn(subs+6))
	for k := r.Intn(4); k > 0 && len(row) > 0; k-- {
		for i, n := r.Intn(len(row)), 1<<r.Intn(4); n > 0 && i < len(row); i, n = i+1, n-1 {
			row[i] = r.Float64() * 1.2
			if r.Intn(12) == 0 {
				row[i] = []float64{math.NaN(), math.Inf(1), -row[i]}[r.Intn(3)]
			}
		}
	}
	return row
}

// hostileInput is randomInput without Sanitize and with what Sanitize
// would have removed: self-loops, doubled, one-way and dangling (one past
// the last position) neighbor entries, views sharing an ID, APs with no or
// an off-band Current, zero width caps,
// quarantined sub-channels and mask bits beyond the band, rows of the
// wrong length with invalid entries and, on some seeds, NaN or infinite
// loads — RunNBO, NetP and the Evaluator accept all of it.
func hostileInput(r *rand.Rand) Input {
	in := Input{Band: spectrum.Band5, AllowDFS: r.Intn(2) == 0}
	if r.Intn(8) == 0 {
		in.Band = spectrum.Band2G4
	}
	widths := []spectrum.Width{0, spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160}
	in.MaxWidth = widths[r.Intn(len(widths))]
	currents := spectrum.AllChannels(in.Band, spectrum.W160, true)
	subs := len(spectrum.Channels(in.Band, spectrum.W20, true))
	if r.Intn(3) == 0 {
		for k := 1 + r.Intn(6); k > 0; k-- {
			in.Blocked |= 1 << r.Intn(subs+8)
		}
	}
	if r.Intn(3) == 0 {
		in.ChannelNoise = hostileRow(r, subs)
	}
	badLoads := r.Intn(6) == 0

	n := 2 + r.Intn(22)
	for i := 0; i < n; i++ {
		v := APView{
			ID:          i,
			MaxWidth:    widths[r.Intn(len(widths))],
			HasClients:  r.Float64() < 0.7,
			CSAFraction: r.Float64(),
			Load:        r.Float64() * 8,
			Utilization: r.Float64(),
			Pinned:      r.Float64() < 0.15,
		}
		switch {
		case r.Intn(12) == 0:
			v.ID = r.Intn(n) // a duplicate ID: a label, every view keeps its own edges
		case r.Intn(10) == 0:
			v.Load = 0
		case badLoads && r.Intn(4) == 0:
			v.Load = []float64{math.NaN(), math.Inf(1), -1}[r.Intn(3)]
		}
		switch x := r.Float64(); {
		case x < 0.8:
			v.Current = currents[r.Intn(len(currents))]
		case x < 0.9:
			v.Current = spectrum.Channel{Band: spectrum.Band6, Number: 37, Width: spectrum.W20}
		}
		for k := r.Intn(4); k > 0; k-- {
			v.WidthLoad[r.Intn(4)] = r.Float64()
		}
		v.ExternalUtil = hostileRow(r, subs)
		in.APs = append(in.APs, v)
	}
	for i := 0; i < n; i++ {
		for k := r.Intn(5); k > 0; k-- {
			j := r.Intn(n + 1) // position n dangles; j == i is a self-loop
			in.APs[i].Neighbors = append(in.APs[i].Neighbors, j)
			if j < n && r.Intn(4) != 0 { // else a one-way edge
				in.APs[j].Neighbors = append(in.APs[j].Neighbors, i)
			}
			if r.Intn(6) == 0 {
				in.APs[i].Neighbors = append(in.APs[i].Neighbors, j) // twice
			}
		}
	}
	return in
}

// checkACCMatchesReference draws a hostile input and a series of working
// states from seed and, for every AP in every state, holds ACC to its
// definition: each candidate of the ladder scores bit-for-bit what
// refDeltaScore gives it, so the picks agree, and scoring leaves assign
// and ignore as it found them. Only two NaNs may differ in their bits:
// which operand's payload the sum of two NaNs keeps is the compiler's
// choice of operand order, and no comparison can tell.
func checkACCMatchesReference(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	p := newPlanner(DefaultConfig(), hostileInput(r)).cloneScratch()
	lo, hi := spectrum.BandIDs(p.in.Band)
	anyID := func() spectrum.ID { return lo + spectrum.ID(r.Intn(int(hi-lo))) }
	n := len(p.views)
	for state := 0; state < 25; state++ {
		for j := 0; j < n; j++ {
			p.assign[j], p.ignore[j] = spectrum.None, r.Intn(5) == 0
			if r.Intn(3) != 0 {
				p.assign[j] = anyID()
			}
			if r.Intn(8) == 0 { // a level's adoption step moved the incumbent
				p.current[j] = anyID()
			}
		}
		assign := append([]spectrum.ID(nil), p.assign...)
		ignore := append([]bool(nil), p.ignore...)
		for i := 0; i < n; i++ {
			cs := p.adm.ladder(p.views[i], p.current[i])
			if i%2 == 1 {
				cs = p.adm.upTo(true, p.views[i].MaxWidth) // the DFS fallback's set
			}
			want, wantScore := spectrum.None, math.Inf(-1)
			terms := p.accWalk(i)
			for _, c := range cs {
				ref := p.refDeltaScore(i, c)
				got := p.accScore(i, c, terms)
				if math.Float64bits(got) != math.Float64bits(ref) && !(math.IsNaN(got) && math.IsNaN(ref)) {
					t.Fatalf("seed %d state %d AP %d (neigh %v) candidate %v: score %v (%#x), reference %v (%#x)",
						seed, state, i, p.neigh[i], c.Channel(), got, math.Float64bits(got), ref, math.Float64bits(ref))
				}
				if ref > wantScore || want == spectrum.None {
					want, wantScore = c, ref
				}
			}
			if got := p.bestByDelta(i, cs); got != want {
				t.Fatalf("seed %d state %d AP %d: picked %v, reference picks %v", seed, state, i, got, want)
			}
		}
		for j := 0; j < n; j++ {
			if p.assign[j] != assign[j] || p.ignore[j] != ignore[j] {
				t.Fatalf("seed %d state %d: scoring wrote the working state of AP %d", seed, state, j)
			}
		}
	}
}

// TestACCMatchesReference is the equivalence proof behind the factored
// scorer, on input no sanitizer has seen.
func TestACCMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		checkACCMatchesReference(t, seed)
	}
}

// FuzzACCMatchesReference lets the fuzzer pick the seeds.
func FuzzACCMatchesReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 20170811, math.MaxInt64} {
		f.Add(seed)
	}
	f.Fuzz(checkACCMatchesReference)
}

// TestACCDoesNotAllocate pins ACC's scratch to the clone: once a round has
// run, scoring an AP allocates nothing.
func TestACCDoesNotAllocate(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	wp := newPlanner(DefaultConfig(), randomInput(r)).cloneScratch()
	wp.nbo(r, 1)
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		wp.acc(i % len(wp.views))
		i++
	}); allocs != 0 {
		t.Fatalf("acc allocates %v times per call on a warm clone", allocs)
	}
}

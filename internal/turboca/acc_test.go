package turboca

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/spectrum"
)

// contention sums the weights of i's neighbors whose channel under the
// working state overlaps sub, in neigh order: the co-channel load i shares
// sub's airtime with (§4.4.1), by definition.
func (p *planner) contention(i int, sub spectrum.ID) float64 {
	contention := 0.0
	mask := sub.Mask()
	for _, j := range p.neigh[i] {
		nc := p.on[j]
		if nc != spectrum.None && mask&nc.Mask() != 0 {
			contention += float64(p.wq[j]) * quantum
		}
	}
	return contention
}

// refLogNodeP is ln NodeP(i, c) by definition: every level's contention by
// its own walk of neigh[i], whatever i holds.
func (p *planner) refLogNodeP(i int, c spectrum.ID) float64 {
	cw := c.Channel().Width.Slot()
	sum := 0.0
	for b := 0; b <= cw; b++ {
		if load := p.load[i][cw][b]; load != 0 {
			sum += p.levelTerm(i, c, b, load, p.contention(i, c.AtWidth(b)))
		}
	}
	return sum
}

// nodePAt is the planner's ln NodeP(i, c): c put on i through the writers
// and read from i's kept row, as the Evaluator and ReservedCA score.
func nodePAt(p *planner, i int, c spectrum.ID) float64 {
	prev := p.assign[i]
	p.setAssign(i, c)
	v := p.logNodeP(i)
	p.setAssign(i, prev)
	return v
}

// refDeltaScore is ACC's score by definition — the planner's scoring path
// until accWalk/accScores factored it: put c on i, then sum i's NodeP and
// the NodeP of every neighbor that has a channel, each by its own walk.
func (p *planner) refDeltaScore(i int, c spectrum.ID) float64 {
	prev := p.assign[i]
	p.setAssign(i, c)
	score := p.refLogNodeP(i, c)
	for _, j := range p.neigh[i] {
		if p.ignore[j] {
			continue
		}
		nc := p.on[j]
		if nc == spectrum.None {
			continue
		}
		score += p.refLogNodeP(j, nc)
	}
	p.setAssign(i, prev)
	return score
}

// rowDrift reports the first j whose on[j] is not what neighbors see of j
// by the rule: none while j is in ψ, else its assignment if it has one,
// else its incumbent.
func rowDrift(p *planner) error {
	for j := range p.on {
		want := p.current[j]
		switch {
		case p.ignore[j]:
			want = spectrum.None
		case p.assign[j] != spectrum.None:
			want = p.assign[j]
		}
		if p.on[j] != want {
			return fmt.Errorf("on[%d] = %d, the rule gives %d (assign %d, ψ %v, current %d)",
				j, p.on[j], want, p.assign[j], p.ignore[j], p.current[j])
		}
	}
	return nil
}

// levelDrift reports the first j whose kept level row is not a fresh
// integer walk of neigh[j] by mask tests, and the first whose logNodeP is
// not its definition's.
func levelDrift(p *planner) error {
	for j, nc := range p.on {
		var want [4]int64
		if nc != spectrum.None {
			for b := 0; b <= nc.Channel().Width.Slot(); b++ {
				mask := nc.AtWidth(b).Mask()
				for _, k := range p.neigh[j] {
					if kc := p.on[k]; kc != spectrum.None && mask&kc.Mask() != 0 {
						want[b] += p.wq[k]
					}
				}
			}
		}
		if p.lvl[j].q != want {
			return fmt.Errorf("lvl[%d] = %v, a walk of %v on %d gives %v", j, p.lvl[j].q, p.neigh[j], nc, want)
		}
		if nc == spectrum.None {
			continue
		}
		if got, ref := p.logNodeP(j), p.refLogNodeP(j, nc); math.Float64bits(got) != math.Float64bits(ref) && !(math.IsNaN(got) && math.IsNaN(ref)) {
			return fmt.Errorf("logNodeP(%d) = %v, by definition %v", j, got, ref)
		}
	}
	return nil
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
			v.Current = spectrum.Channel{Band: spectrum.Band(2), Number: 37, Width: spectrum.W20}
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
// states from seed, written through the planner's writers in a random
// order, and holds the resolved row to its rule in every state and, for
// every AP, ACC to its definition: each candidate of the ladder scores
// bit-for-bit what refDeltaScore gives it, so the picks agree, and scoring
// leaves assign and ignore as it found them. Only two NaNs may differ in
// their bits: which operand's payload the sum of two NaNs keeps is the
// compiler's choice of operand order, and no comparison can tell.
func checkACCMatchesReference(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	p := newPlanner(DefaultConfig(), hostileInput(r)).cloneScratch()
	lo, hi := spectrum.BandIDs(p.in.Band)
	anyID := func() spectrum.ID { return lo + spectrum.ID(r.Intn(int(hi-lo))) }
	n := len(p.views)
	for state := 0; state < 25; state++ {
		for j := 0; j < n; j++ {
			for _, w := range r.Perm(3) {
				switch {
				case w == 0:
					p.setIgnore(j, r.Intn(5) == 0)
				case w == 1 && r.Intn(3) != 0:
					p.setAssign(j, anyID())
				case w == 1:
					p.setAssign(j, spectrum.None)
				case r.Intn(8) == 0: // a level's adoption step moved the incumbent
					p.setCurrent(j, anyID())
				}
			}
		}
		if err := errors.Join(rowDrift(p), levelDrift(p)); err != nil {
			t.Fatalf("seed %d state %d: %v", seed, state, err)
		}
		assign := append([]spectrum.ID(nil), p.assign...)
		ignore := append([]bool(nil), p.ignore...)
		for i := 0; i < n; i++ {
			cs := p.adm.ladder(p.views[i], p.current[i])
			if i%2 == 1 {
				cs = p.adm.upTo(true, p.views[i].MaxWidth) // the DFS fallback's set
			}
			want, wantScore := spectrum.None, math.Inf(-1)
			scores := p.accScores(i, cs, p.accWalk(i), make([]float64, len(cs)))
			for k, c := range cs {
				ref := p.refDeltaScore(i, c)
				got := scores[k]
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
		if err := errors.Join(rowDrift(p), levelDrift(p)); err != nil {
			t.Fatalf("seed %d state %d, after scoring: %v", seed, state, err)
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

// checkingSource is a random source that holds a planner's resolved row to
// its rule before every draw. nbo draws right after each ACC pick (the
// next load-weighted pick, or the next seed), so the draws see every state
// an ACC pick leaves, the ψ markings and each round's reset.
type checkingSource struct {
	rand.Source
	p     *planner
	t     *testing.T
	where string
	draws int
}

func (s *checkingSource) Int63() int64 {
	s.draws++
	if err := errors.Join(rowDrift(s.p), levelDrift(s.p)); err != nil {
		s.t.Fatalf("%s, draw %d: %v", s.where, s.draws, err)
	}
	return s.Source.Int63()
}

// TestResolvedRowThroughRounds holds the resolved row to its rule over
// whole NBO rounds, on sanitized and hostile input at every hop level, with
// the shared incumbent moved between levels as runNBO's adoption moves it:
// after every ACC pick and at the end of every round, on[j] is the rule's
// value for every j.
func TestResolvedRowThroughRounds(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randomInput(r)
		if seed%2 == 1 {
			in = hostileInput(r)
		}
		p := newPlanner(DefaultConfig(), in)
		p.cfg.UniformPick = seed%3 == 0
		wp := p.cloneScratch()
		src := &checkingSource{Source: rand.NewSource(seed), p: wp, t: t}
		for li, h := range []int{2, 1, 0} {
			for round := 0; round < 3; round++ {
				src.where = fmt.Sprintf("seed %d hop %d round %d", seed, h, round)
				wp.nbo(rand.New(src), h)
				if err := errors.Join(rowDrift(wp), levelDrift(wp)); err != nil {
					t.Fatalf("%s, at its end: %v", src.where, err)
				}
			}
			for i, c := range wp.assign {
				if c != spectrum.None && (i+li)%2 == 0 {
					p.setCurrent(i, c) // adoption, as between runNBO's levels
				}
			}
		}
		if src.draws == 0 {
			t.Fatalf("seed %d: nbo drew nothing; the row was never checked", seed)
		}
	}
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

// TestContentionGridExact holds the grid to its bound: on a clique whose
// every list has the most entries the planner reads, each of them a
// neighbor at maxSaneLoad (or an infinite load, clamped), contention() —
// float adds in neigh order — equals the kept integer sum times the quantum
// bit for bit, on one shared channel, where every sum is the largest there
// is, and on channels drawn at random. quantize maps what no sane load
// gives as its comment says.
func TestContentionGridExact(t *testing.T) {
	for _, tc := range []struct{ x, want float64 }{
		{math.NaN(), 0},
		{math.Inf(1), maxWeightQ},
		{math.Inf(-1), -maxWeightQ},
		{1e300, maxWeightQ},
		{-1e300, -maxWeightQ},
		{0.2 - 1, -math.Round(0.8 / quantum)},
		{0.2 + maxSaneLoad, math.Round((0.2 + maxSaneLoad) / quantum)},
		{3 * quantum, 3},
		{-2.5 * quantum, -3}, // half away from zero
	} {
		if got := quantize(tc.x); float64(got) != tc.want {
			t.Errorf("quantize(%v) = %d, want %v", tc.x, got, tc.want)
		}
	}

	const aps = 17 // every list repeats each of the other 16 APs 1024 times
	for _, load := range []float64{maxSaneLoad, math.Inf(1)} {
		in := Input{Band: spectrum.Band5, AllowDFS: true, MaxWidth: spectrum.W160}
		for i := 0; i < aps; i++ {
			v := APView{ID: i, MaxWidth: spectrum.W160, Load: load, WidthLoad: [4]float64{1, 1, 1, 1}}
			for len(v.Neighbors) < maxNeighbors {
				for j := 0; j < aps; j++ {
					if j != i {
						v.Neighbors = append(v.Neighbors, j)
					}
				}
			}
			v.Neighbors = append(v.Neighbors, (i+1)%aps) // one past the most: not read
			in.APs = append(in.APs, v)
		}
		p := newPlanner(DefaultConfig(), in)
		lo, hi := spectrum.BandIDs(in.Band)
		wide := spectrum.AllChannels(in.Band, spectrum.W160, true)
		shared, _ := spectrum.IDOf(wide[0])
		r := rand.New(rand.NewSource(1))
		for round := 0; round < 4; round++ {
			for i := range p.views {
				c := shared
				if round > 0 {
					c = lo + spectrum.ID(r.Intn(int(hi-lo)))
				}
				p.setAssign(i, c)
			}
			if err := levelDrift(p); err != nil {
				t.Fatalf("load %v round %d: %v", load, round, err)
			}
			for j, nc := range p.on {
				if len(p.neigh[j]) != maxNeighbors {
					t.Fatalf("AP %d reads %d neighbor entries, want %d", j, len(p.neigh[j]), maxNeighbors)
				}
				for b := 0; b <= nc.Channel().Width.Slot(); b++ {
					q := p.lvl[j].q[b]
					if round == 0 && (q != maxNeighbors*p.wq[j] || q >= 1<<53) {
						t.Fatalf("load %v: AP %d level %d keeps %d quanta, want %d × %d below 2⁵³", load, j, b, q, maxNeighbors, p.wq[j])
					}
					got, want := p.contention(j, nc.AtWidth(b)), float64(q)*quantum
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("load %v round %d AP %d level %d: contention %v, kept %d quanta = %v", load, round, j, b, got, q, want)
					}
				}
			}
		}
	}
}

package turboca

import (
	"math"

	"repro/internal/spectrum"
)

// Incremental NetP rescoring. NetP decomposes over APs — ln NetP is the
// index-ordered sum of per-AP contributions, and an AP's contribution
// depends only on its own channel and its neighbors' channels (the airtime
// contention term). So between two scorings of the same planner, only APs
// whose channel changed — or that neighbor an AP whose channel changed —
// can have a different contribution; everything else is reused from the
// previous call. This turns the per-round cost of scoring from O(APs ·
// neighbors) into O(changed neighborhoods · neighbors), which is what makes
// fleet-scale fast passes cheap: a converged network's rounds mostly
// reassign APs onto the channels they already held.
//
// Bitwise identity with the full path is load-bearing (plans must not
// depend on whether the cache was warm): each cached contribution is the
// exact float64 logNodeP would produce, and the final reduction always
// re-sums the full contribution array in index order — float addition is
// not associative, so summing deltas instead would drift in the low bits.

// unscored marks a contribution slot that has never been computed.
// channelOf returns spectrum.None or a table ID, so -2 never collides.
const unscored = spectrum.ID(-2)

// contribution computes AP i's ln NodeP term under the working state —
// exactly the value logNetP adds for i.
func (p *planner) contribution(i int) float64 {
	c := p.channelOf(i)
	if c == spectrum.None {
		return p.views[i].Load * math.Log(p.cfg.MetricFloor)
	}
	return p.logNodeP(i, c)
}

// score returns ln NetP of the working state, bitwise identical to
// logNetP at every call. Callers must only invoke it when no AP is marked
// in p.ignore (the baseline and post-NBO states), so channelOf reflects
// real assignments.
func (p *planner) score() float64 {
	n := len(p.views)
	if p.contrib == nil {
		p.contrib = make([]float64, n)
		p.scoredChan = make([]spectrum.ID, n)
		p.chgGen = make([]int, n)
		for i := range p.scoredChan {
			p.scoredChan[i] = unscored
		}
	}
	// Stamp every AP whose channel differs from the one its cached
	// contribution was computed on. The recompute scan below then asks
	// "did I or any of MY neighbors change" — a forward dependency check
	// that stays correct when neighbor edges are asymmetric (marking the
	// neighbors of changed APs instead would miss i hearing j when j does
	// not hear i).
	p.gen++
	gen := p.gen
	for i := 0; i < n; i++ {
		if p.channelOf(i) != p.scoredChan[i] {
			p.chgGen[i] = gen
		}
	}
	fresh := 0
	for i := 0; i < n; i++ {
		dirty := p.chgGen[i] == gen
		if !dirty {
			for _, j := range p.neigh[i] {
				if p.chgGen[j] == gen {
					dirty = true
					break
				}
			}
		}
		if dirty {
			p.contrib[i] = p.contribution(i)
			p.scoredChan[i] = p.channelOf(i)
			fresh++
		}
	}
	if p.met != nil {
		p.met.rescoreFresh.Add(int64(fresh))
		p.met.rescoreReused.Add(int64(n - fresh))
	}
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.contrib[i]
	}
	return sum
}

package turboca

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

// acc — AP Channel Calculation (§4.4.2) — picks the channel for AP i
// that maximizes NetP, considering only i and its neighbors (the
// only NodeP values a single-AP change can affect). APs currently marked
// in p.ignore (the paper's ψ) are treated as if they had no channel, which
// lets NBO escape locally optimal plans by presuming upcoming changes.
// Which channels i may take, and what it degrades to when none is
// admissible, is admissibleSets.ladder's decision.
func (p *planner) acc(i int) spectrum.ID {
	return p.bestByDelta(i, p.adm.ladder(p.views[i], p.current[i]))
}

// bestByDelta returns the member of cs with the highest accScores entry
// for i, the first such in cs order, and spectrum.None only when cs is
// empty: if no score compares (NaN loads on input that skipped Sanitize)
// the answer is still a member of cs, its first.
func (p *planner) bestByDelta(i int, cs []spectrum.ID) spectrum.ID {
	var buf [spectrum.MaxBandChannels]float64
	best, bestScore := spectrum.None, math.Inf(-1)
	for k, s := range p.accScores(i, cs, p.accWalk(i), buf[:len(cs)]) {
		if s > bestScore || best == spectrum.None {
			bestScore = s
			best = cs[k]
		}
	}
	return best
}

// accTerm is what one scored neighbor j adds to every candidate's score for
// the AP under ACC (DESIGN §3.5). ln NodeP(j) depends on the candidate only
// through which width levels of j's channel it overlaps, and those nest, so
// the first level the candidate overlaps (nc.FirstOverlap) decides it.
type accTerm struct {
	self  bool        // j is the AP itself, a self-loop: its NodeP is the AP's own
	nc    spectrum.ID // j's channel
	nodeP [5]float64  // ln NodeP(j) by the first level overlapped; past nc's width for none
}

// accWalk computes what i's candidate scores share, in one walk of neigh[i]:
// i's own contention on every channel of the band (p.accOwn, read at a
// candidate's AtWidth views) and an accTerm per scored neighbor. Every sum
// is on the grid, so accScores is the definition (refDeltaScore,
// acc_test.go) to the bit.
func (p *planner) accWalk(i int) []accTerm {
	lo, hi := spectrum.BandIDs(p.in.Band)
	own, terms := p.accOwn, p.accTerms[:0]
	clear(own[lo:hi])
	mult := p.mult[p.nbrOff[i]:p.nbrOff[i+1]]
	for k, j := range p.neigh[i] {
		if j == i && !p.ignore[i] {
			// A self-loop: holding the candidate, i overlaps every view of it.
			for s := lo; s < hi; s++ {
				own[s] += p.wq[i]
			}
			terms = append(terms, accTerm{self: true})
			continue
		}
		nc := p.on[j] // none in ψ, i included
		if nc == spectrum.None {
			continue
		}
		for _, s := range nc.Overlapping() {
			own[s] += p.wq[j]
		}
		terms = terms[:len(terms)+1]
		p.neighborTerm(&terms[len(terms)-1], i, j, nc, int64(mult[k]))
	}
	return terms
}

// neighborTerm fills t with the accTerm of i's neighbor j on channel nc,
// where i appears m times in neigh[j]. j's contention at each width level
// of nc without i is its kept row less i's weight where on[i] overlaps;
// with i it is that plus i's weight at every level, as a candidate that
// overlaps a level overlaps it. At every level one of the two is the kept
// row.
func (p *planner) neighborTerm(t *accTerm, i, j int, nc spectrum.ID, m int64) {
	cw := nc.Channel().Width.Slot()
	*t = accTerm{nc: nc}
	kept := p.lvl[j].q
	without, wi := kept, m*p.wq[i]
	shift(&without, nc, p.on[i], -wi)
	if p.ignore[i] {
		wi = 0 // a member of ψ is invisible even holding the candidate
	}
	// logNodeP's sum, once per level f the candidate's overlap can start at.
	for b := 0; b <= cw; b++ {
		load := p.load[j][cw][b]
		if load == 0 {
			continue
		}
		on := p.storedTerm(j, nc, b, load)
		off := on
		if with := without[b] + wi; with != kept[b] {
			on = p.levelTerm(j, nc, b, load, float64(with)*quantum)
		} else if without[b] != kept[b] {
			off = p.levelTerm(j, nc, b, load, float64(without[b])*quantum)
		}
		for f := range t.nodeP[:cw+2] {
			if b < f {
				t.nodeP[f] += off
			} else {
				t.nodeP[f] += on
			}
		}
	}
}

// accScores writes into scores[k] the NetP contribution affected by
// assigning cs[k] to i — its own NodeP plus, in neigh[i] order, that of
// every neighbor (whose airtime depends on i's channel) — and returns
// scores, which is as long as cs. terms is accWalk(i)'s result.
//
// Every own NodeP comes first, then the terms are added term by term
// across the candidates, so each candidate's sum runs in the order the
// definition's does. The logarithms of the own NodeP are shared: a view
// AtWidth(b) of a candidate fixes b, the external utilisation and, through
// accOwn, the contention, so ln channel_metric depends on nothing else but
// whether the candidate is i's on-air channel (the penalty), and bonded
// candidates that nest share their narrower views.
func (p *planner) accScores(i int, cs []spectrum.ID, terms []accTerm, scores []float64) []float64 {
	lo, _ := spectrum.BandIDs(p.in.Band)
	var own [spectrum.MaxBandChannels]float64
	// logs[2x+moved] is ln channel_metric on the band's x-th ID as a view,
	// or 0 while not computed: a log that is 0 is computed again, to 0.
	var logs [2 * spectrum.MaxBandChannels]float64
	for k, c := range cs {
		cw := c.Channel().Width.Slot()
		moved := c != p.onAir[i]
		sum := 0.0
		for b := 0; b <= cw; b++ {
			load := p.load[i][cw][b]
			if load == 0 {
				continue
			}
			v := c.AtWidth(b)
			key := 2 * uint(v-lo)
			if moved {
				key++
			}
			if logs[key] == 0 {
				logs[key] = p.logMetric(i, v, b, moved, float64(p.accOwn[v])*quantum)
			}
			sum += float64(load * logs[key])
		}
		own[k], scores[k] = sum, sum
	}
	for t := range terms {
		if terms[t].self {
			for k := range scores {
				scores[k] += own[k]
			}
			continue
		}
		nodeP, fo := &terms[t].nodeP, terms[t].nc.FirstOverlaps()
		for k, c := range cs {
			scores[k] += nodeP[fo[c]]
		}
	}
	return scores
}

// bestNonDFSFallback picks the best DFS-free channel within i's cap, used
// when a radar event forces an immediate move (§4.5.2). Quarantined
// channels are excluded — a fallback that lands inside an active NOP window
// is exactly the violation the fallback exists to avoid. Returns the zero
// Channel, Assignment.Fallback's none, when nothing qualifies; the backend
// then draws its own quarantine-aware fallback.
func (p *planner) bestNonDFSFallback(i int) spectrum.Channel {
	best := p.bestByDelta(i, p.adm.upTo(true, p.views[i].MaxWidth))
	if best == spectrum.None {
		return spectrum.Channel{}
	}
	return best.Channel()
}

// nbo — Network Basic Operation (Algorithm 1, §4.4.3) — produces a full
// proposed assignment. hopLimit is the paper's i: the radius of the
// candidate set of nodes whose current assignments are ignored while the
// group is (re)planned. Picks on line 8 are weighted by AP load so heavily
// loaded APs plan first and get the cleaner channels.
func (p *planner) nbo(rng *rand.Rand, hopLimit int) {
	p.unassignAll()
	remaining := p.remBuf[:0]
	for i := range p.views {
		// A pinned AP (stale/offline telemetry, §4.5-style caution) is
		// pre-assigned its current channel and never enters ψ: neighbors
		// always see it where it really is, and no pass can move it.
		if p.views[i].Pinned && p.current[i] != spectrum.None {
			p.setAssign(i, p.current[i])
			continue
		}
		remaining = append(remaining, i)
	}

	for len(remaining) > 0 {
		// Line 4: random unassigned AP.
		pick := rng.Intn(len(remaining))
		seed := remaining[pick]

		// Line 5: group = seed + APs within hopLimit hops, unassigned.
		group := p.hopGroup(seed, hopLimit, remaining)
		if len(group) == 1 {
			// A group of one leaves ψ before anything reads ψ: skip the
			// round trip, and line 6 removes just the seed.
			remaining = append(remaining[:pick], remaining[pick+1:]...)
		} else {
			for _, g := range group {
				p.setIgnore(g, true) // ψ: presume these will change
			}
			// Line 6: S <- S - Sgroup. Group members are exactly the
			// remaining APs currently marked in ψ.
			kept := remaining[:0]
			for _, r := range remaining {
				if !p.ignore[r] {
					kept = append(kept, r)
				}
			}
			remaining = kept
		}

		// Lines 7-11: drain the group, load-weighted; each planned AP
		// leaves ψ so later picks see its new channel.
		for len(group) > 0 {
			gi := p.pickLoadWeighted(rng, group)
			m := group[gi]
			group = append(group[:gi], group[gi+1:]...)
			p.setIgnore(m, false)
			p.setAssign(m, p.acc(m))
		}
	}
}

// hopGroup returns seed plus every AP within hops hops, restricted to the
// eligible (still remaining) set. The returned slice aliases a scratch
// buffer that is reused by the next call — callers consume it before
// picking again (which nbo does).
func (p *planner) hopGroup(seed int, hops int, eligible []int) []int {
	group := append(p.groupBuf[:0], seed)
	if hops > 0 {
		p.gen++
		for _, e := range eligible {
			p.eligGen[e] = p.gen
		}
		p.seenGen[seed] = p.gen
		// BFS frontier [lo:hi) runs over group itself: newly appended
		// members form the next frontier.
		lo, hi := 0, len(group)
		for h := 0; h < hops && lo < hi; h++ {
			for _, i := range group[lo:hi] {
				for _, j := range p.neigh[i] {
					if p.eligGen[j] == p.gen && p.seenGen[j] != p.gen {
						p.seenGen[j] = p.gen
						group = append(group, j)
					}
				}
			}
			lo, hi = hi, len(group)
		}
	}
	p.groupBuf = group
	return group
}

// pickLoadWeighted draws an index into group with probability proportional
// to AP load (§4.4.3: "the probability of picking any AP is weighted
// proportionally to the load").
func (p *planner) pickLoadWeighted(rng *rand.Rand, group []int) int {
	if p.cfg.UniformPick {
		return rng.Intn(len(group))
	}
	total := 0.0
	for _, i := range group {
		total += p.views[i].Load + 0.01
	}
	x := rng.Float64() * total
	for gi, i := range group {
		x -= p.views[i].Load + 0.01
		if x <= 0 {
			return gi
		}
	}
	return len(group) - 1
}

// snapshotPlan converts the scratch assignment into an exported Plan,
// computing DFS fallbacks.
func (p *planner) snapshotPlan() Plan {
	plan := Plan{}
	for i, v := range p.views {
		c := p.assign[i]
		if c == spectrum.None {
			continue
		}
		a := Assignment{Channel: c.Channel()}
		if a.Channel.DFS {
			a.Fallback = p.bestNonDFSFallback(i)
		}
		plan[v.ID] = a
	}
	return plan
}

// switches counts the APs plan moves off their reported Current channel.
func (p *planner) switches(plan Plan) int {
	n := 0
	for _, v := range p.views {
		a, ok := plan[v.ID]
		cur := v.Current
		if !ok || !cur.Width.Valid() {
			continue // first assignment ever: nothing switched away from
		}
		if cur.Number != a.Channel.Number || cur.Width != a.Channel.Width {
			n++
		}
	}
	return n
}

// Result reports one planning invocation.
type Result struct {
	Plan Plan
	// LogNetP of the accepted plan.
	LogNetP float64
	// Improved is false when the incumbent plan was kept.
	Improved bool
	// Switches counts APs whose channel changed from Current.
	Switches int
	// Rounds is how many NBO rounds ran.
	Rounds int
}

// roundSeed derives the RNG seed for one NBO round from the invocation's
// base seed and the round's (hop level index, round index) coordinates,
// using a splitmix64-style mix. Because every round owns its stream, the
// sequence of plans a seed produces is independent of how rounds are
// scheduled across workers.
func roundSeed(base int64, level, round int) int64 {
	return int64(sim.Mix64(uint64(base) + 0x9e3779b97f4a7c15*uint64(uint32(level)+1) + 0xbf58476d1ce4e5b9*uint64(uint32(round)+1)))
}

// RunNBO executes the paper's accept-if-better loop: several NBO rounds at
// each hop limit in hops (e.g. [2,1,0] for the daily schedule), always
// ending with i=0, keeping the best plan seen. The incumbent (current
// channels, no changes) is the implicit baseline, so NetP never regresses.
// Between hop levels the best plan so far is adopted as the working
// incumbent, so deeper (later) levels refine the earlier levels' winner
// rather than replanning from the on-air channels.
//
// Rounds within one hop level are independent and run concurrently on
// cfg.Workers goroutines (GOMAXPROCS when zero). rng is consumed exactly
// once, to draw a base seed; each round then uses its own stream derived
// from (base, level, round), and the accept-if-better reduction scans
// rounds in index order — so a given seed yields byte-identical results at
// any worker count.
func RunNBO(cfg Config, in Input, rng *rand.Rand, hops []int) Result {
	return runNBO(cfg, in, rng, hops, nboHooks{})
}

// nboHooks are runNBO's test hooks; each may be nil.
type nboHooks struct {
	// onLevel observes the working incumbent after each hop level's
	// adoption step.
	onLevel func(hop int, incumbent []spectrum.ID)
}

// runNBO is RunNBO plus test hooks.
func runNBO(cfg Config, in Input, rng *rand.Rand, hops []int, hooks nboHooks) Result {
	m := cfg.metrics()
	sp := cfg.tracer().Begin("turboca.pass")
	defer sp.End()
	passStart := time.Now()

	p := newPlanner(cfg, in)
	runs := cfg.Runs
	if runs <= 0 {
		runs = 2 + len(in.APs)/100 // "proportional to the network size"
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > runs {
		workers = runs
	}
	base := rng.Int63()

	// Baseline: current channels as-is (newPlanner leaves every AP
	// unassigned; rounds run on clones). Never-assigned APs score at their
	// NodeP floor (see logNetP), so any round that gives them a channel
	// beats the baseline on their account rather than being penalized for
	// disturbing a fictitious perfect score.
	bestScore := p.logNetP()
	var bestAssign []spectrum.ID
	improved := false
	rounds := 0

	type roundOut struct {
		score  float64
		assign []spectrum.ID
	}
	for li, h := range hops {
		levelStart := time.Now()
		out := make([]roundOut, runs)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				wp := p.cloneScratch()
				// One generator per worker, re-seeded for its later rounds;
				// re-seeding a SplitMix64 source is one store.
				rr := sim.NewRNG(roundSeed(base, li, w))
				for r := w; r < runs; r += workers {
					if r > w {
						rr.Seed(roundSeed(base, li, r))
					}
					wp.nbo(rr, h)
					out[r] = roundOut{wp.logNetP(), append([]spectrum.ID(nil), wp.assign...)}
				}
			}(w)
		}
		wg.Wait()

		// Deterministic reduction: accept-if-better in round order, exactly
		// as the serial loop would. Metrics are recorded here, on the
		// serial path, so the NetP trajectory histogram sees every round's
		// score in a scheduling-independent multiset.
		for _, ro := range out {
			rounds++
			accepted := ro.score > bestScore
			if accepted {
				bestScore = ro.score
				bestAssign = ro.assign
				improved = true
			}
			m.round(ro.score, accepted)
		}
		m.level(levelStart)

		// Refinement (§4.4.4): adopt the best plan so far as the working
		// incumbent, so the next hop level's rounds plan against it — the
		// unassigned/out-of-ψ APs appear on their best-so-far channels, and
		// ACC's stay-put fallback keeps them there.
		if bestAssign != nil {
			for i, c := range bestAssign {
				if c != spectrum.None {
					p.setCurrent(i, c)
				}
			}
		}
		if hooks.onLevel != nil {
			hooks.onLevel(h, append([]spectrum.ID(nil), p.current...))
		}
	}

	res := Result{LogNetP: bestScore, Improved: improved, Rounds: rounds}
	for i, c := range bestAssign { // none: p is still all unassigned
		p.setAssign(i, c)
	}
	res.Plan = p.snapshotPlan()
	res.Switches = p.switches(res.Plan)
	m.pass(passStart, bestScore, res.Switches)
	return res
}

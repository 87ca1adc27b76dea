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

// bestByDelta returns the member of cs with the highest accScore for i,
// the first such in cs order, and spectrum.None only when cs is empty: if
// no score compares (NaN loads on input that skipped Sanitize) the answer
// is still a member of cs, its first.
func (p *planner) bestByDelta(i int, cs []spectrum.ID) spectrum.ID {
	terms := p.accWalk(i)
	best, bestScore := spectrum.None, math.Inf(-1)
	for _, c := range cs {
		if s := p.accScore(i, c, terms); s > bestScore || best == spectrum.None {
			bestScore = s
			best = c
		}
	}
	return best
}

// accTerm is what one scored neighbor j adds to every candidate's score for
// the AP under ACC (DESIGN §3.5). ln NodeP(j) depends on the candidate only
// through which width levels of j's channel it overlaps, and those nest, so
// the first level the candidate overlaps decides it.
type accTerm struct {
	self  bool       // j is the AP itself, a self-loop: its NodeP is the AP's own
	n     int        // width levels of j's channel
	mask  [4]uint64  // j's channel seen at each of them, narrow to wide
	nodeP [5]float64 // ln NodeP(j) by the first level overlapped; [n] for none
}

// accWalk computes what i's candidate scores share, in one walk of neigh[i]:
// i's own contention on every channel of the band (p.accOwn, read at a
// candidate's AtWidth views) and an accTerm per scored neighbor. Every sum
// receives the addends contention() would give it, in neigh order, so
// accScore is the definition (refDeltaScore, acc_test.go) to the bit.
func (p *planner) accWalk(i int) []accTerm {
	lo, hi := spectrum.BandIDs(p.in.Band)
	own, terms := p.accOwn, p.accTerms[:0]
	clear(own)
	for _, j := range p.neigh[i] {
		if j == i && !p.ignore[i] {
			// A self-loop: holding the candidate, i overlaps every view of it.
			for s := lo; s < hi; s++ {
				own[s] += p.weight[i]
			}
			terms = append(terms, accTerm{self: true})
			continue
		}
		nc := p.channelOf(j) // none in ψ, i included
		if nc == spectrum.None {
			continue
		}
		for s, m := lo, nc.Mask(); s < hi; s++ {
			if s.Mask()&m != 0 {
				own[s] += p.weight[j]
			}
		}
		terms = append(terms, p.neighborTerm(i, j, nc))
	}
	return terms
}

// neighborTerm is the accTerm of i's neighbor j on channel nc: one walk of
// neigh[j] sums j's contention at each width level of nc with and without i,
// whose weight enters where contention() adds it when the candidate overlaps.
func (p *planner) neighborTerm(i, j int, nc spectrum.ID) accTerm {
	cw := nc.Channel().Width.Slot()
	t := accTerm{n: cw + 1}
	for b := 0; b <= cw; b++ {
		t.mask[b] = nc.AtWidth(b).Mask()
	}
	var with, without [4]float64
	for _, k := range p.neigh[j] {
		if k == i && !p.ignore[i] {
			for b := 0; b <= cw; b++ {
				with[b] += p.weight[i]
			}
			continue
		}
		kc := p.channelOf(k)
		if kc == spectrum.None || kc.Mask()&nc.Mask() == 0 {
			continue
		}
		for b, m := 0, kc.Mask(); b <= cw; b++ {
			if m&t.mask[b] != 0 {
				with[b] += p.weight[k]
				without[b] += p.weight[k]
			}
		}
	}
	// logNodeP's sum, once per level f the candidate's overlap can start at.
	for b := 0; b <= cw; b++ {
		load := p.load[j][cw][b]
		if load == 0 {
			continue
		}
		on := p.levelTerm(j, nc, b, load, with[b])
		off := p.levelTerm(j, nc, b, load, without[b])
		for f := range t.nodeP[:t.n+1] {
			if b < f {
				t.nodeP[f] += off
			} else {
				t.nodeP[f] += on
			}
		}
	}
	return t
}

// accScore is the NetP contribution affected by assigning c to i: its own
// NodeP plus, in neigh[i] order, that of every neighbor (whose airtime
// depends on i's channel). terms is accWalk(i)'s result.
func (p *planner) accScore(i int, c spectrum.ID, terms []accTerm) float64 {
	own := p.nodeP(i, c, p.accOwn)
	score, mask := own, c.Mask()
	for k := range terms {
		t := &terms[k]
		if t.self {
			score += own
			continue
		}
		f := 0
		for f < t.n && mask&t.mask[f] == 0 {
			f++
		}
		score += t.nodeP[f]
	}
	return score
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
	n := len(p.views)
	for i := 0; i < n; i++ {
		p.assign[i] = spectrum.None
		p.ignore[i] = false
	}
	remaining := p.remBuf[:0]
	for i := 0; i < n; i++ {
		// A pinned AP (stale/offline telemetry, §4.5-style caution) is
		// pre-assigned its current channel and never enters ψ: neighbors
		// always see it where it really is, and no pass can move it.
		if p.views[i].Pinned && p.current[i] != spectrum.None {
			p.assign[i] = p.current[i]
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
		for _, g := range group {
			p.ignore[g] = true // ψ: presume these will change
		}
		// Line 6: S <- S - Sgroup. Group members are exactly the remaining
		// APs currently marked in ψ.
		kept := remaining[:0]
		for _, r := range remaining {
			if !p.ignore[r] {
				kept = append(kept, r)
			}
		}
		remaining = kept

		// Lines 7-11: drain the group, load-weighted; each planned AP
		// leaves ψ so later picks see its new channel.
		for len(group) > 0 {
			gi := p.pickLoadWeighted(rng, group)
			m := group[gi]
			group = append(group[:gi], group[gi+1:]...)
			p.ignore[m] = false
			p.assign[m] = p.acc(m)
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
	sp := cfg.obsRegistry().Tracer().Begin("turboca.pass")
	passStart := time.Now()
	defer func() {
		m.passUS.Observe(time.Since(passStart).Microseconds())
		sp.End()
	}()
	m.passes.Inc()

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

	// Baseline: current channels as-is. Never-assigned APs score at their
	// NodeP floor (see logNetP), so any round that gives them a channel
	// beats the baseline on their account rather than being penalized for
	// disturbing a fictitious perfect score.
	for i := range p.assign {
		p.assign[i] = spectrum.None
	}
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
				// One generator per worker, re-seeded for its later rounds.
				rr := rand.New(rand.NewSource(roundSeed(base, li, w)))
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
			m.rounds.Inc()
			m.netpRound.Observe(milliNetP(ro.score))
			if ro.score > bestScore {
				bestScore = ro.score
				bestAssign = ro.assign
				improved = true
				m.roundsAccepted.Inc()
			} else {
				m.roundsRejected.Inc()
			}
		}
		m.levelUS.Observe(time.Since(levelStart).Microseconds())

		// Refinement (§4.4.4): adopt the best plan so far as the working
		// incumbent, so the next hop level's rounds plan against it — the
		// unassigned/out-of-ψ APs appear on their best-so-far channels, and
		// ACC's stay-put fallback keeps them there.
		if bestAssign != nil {
			for i, c := range bestAssign {
				if c != spectrum.None {
					p.current[i] = c
				}
			}
		}
		if hooks.onLevel != nil {
			hooks.onLevel(h, append([]spectrum.ID(nil), p.current...))
		}
	}

	res := Result{LogNetP: bestScore, Improved: improved, Rounds: rounds}
	if bestAssign != nil {
		copy(p.assign, bestAssign)
	} else {
		for i := range p.assign {
			p.assign[i] = spectrum.None
		}
	}
	res.Plan = p.snapshotPlan()
	res.Switches = p.switches(res.Plan)
	m.netpBest.Set(milliNetP(bestScore))
	m.switchesDone.Add(int64(res.Switches))
	return res
}

// Package turboca implements the TurboCA automatic channel assignment
// algorithm of Section 4: the NodeP/NetP performance metrics (§4.4.1), the
// per-AP channel calculation ACC (§4.4.2), the randomized network pass NBO
// (Algorithm 1, §4.4.3), the multi-cadence run-time schedule (§4.4.4), the
// DFS/CSA practical rules (§4.5), and the prior-generation baseline
// ReservedCA (§4.6.1) it is evaluated against.
//
// An AP is its position in Input.APs: neighbor lists hold positions and
// every table the planner builds is a row in that order, next to the
// spectrum table IDs it uses for channels, so a 600-AP campus plans in
// milliseconds. APView.ID is a label the planner never resolves: it keys
// the exported Plan, is folded by Digest and deduplicated by Sanitize.
package turboca

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/obs"
	"repro/internal/spectrum"
)

// APView is everything the planner knows about one AP — exactly the data
// the Meraki backend collects: current assignment, capability, client
// width/usage mix, neighbor reports, and per-20MHz-channel external
// (non-network) utilization.
type APView struct {
	// ID labels the AP towards the caller: the key of its Plan entry.
	ID       int
	Current  spectrum.Channel
	MaxWidth spectrum.Width
	// HasClients gates DFS moves (§4.5.2) and switch penalties.
	HasClients bool
	// CSAFraction is the share of associated clients that honor Channel
	// Switch Announcements; the rest rescan on a switch (§4.3.1).
	CSAFraction float64
	// Load is the AP's traffic weight (normalized usage); it exponentiates
	// channel_metric inside NodeP and weights NBO's random picks.
	Load float64
	// WidthLoad[s] is the usage share of clients whose maximum channel
	// width is spectrum.Widths[s] (Width.Slot). Clients wider than the
	// AP's assignment collapse onto the assigned width at evaluation time.
	WidthLoad [4]float64
	// Neighbors lists the APs whose transmissions this AP can hear, as
	// positions in Input.APs. The slice may be shared between inputs: the
	// planner reads it in place and Sanitize replaces one it has to repair.
	Neighbors []int
	// ExternalUtil is the non-network utilization fraction the scanning
	// radio observes on each 20 MHz channel of the band, as a sub-channel
	// row (see Input). Nil means none anywhere.
	ExternalUtil []float64
	// Utilization is the AP's current-channel total utilization, used for
	// the §4.5.1 high-utilization penalty scaling.
	Utilization float64
	// Stale marks a view built from decayed last-known-good telemetry
	// because the AP has not reported recently; it feeds the service's
	// degradation guard (skip deep passes when too much of the input is
	// guesswork).
	Stale bool
	// Pinned freezes the AP on its current channel: the planner plans
	// around it but never moves it. The backend pins APs it has not heard
	// from for so long that even decayed data is untrustworthy — an
	// offline AP cannot receive a push anyway.
	Pinned bool
}

// Input is one band's planning problem. Everything it carries per 20 MHz
// channel is indexed by sub-channel position: entry (or bit) i belongs to
// spectrum.Channels(Band, W20, true)[i], the channel whose spectrum.ID
// mask is bit i. A row shorter than the band reads as zero beyond its end
// and nothing reads one beyond the band's; rows may be shared between
// inputs, so only Sanitize, repairing an invalid entry, writes to one.
type Input struct {
	Band spectrum.Band
	APs  []APView
	// AllowDFS admits DFS channels (subject to the has-clients rule).
	AllowDFS bool
	// MaxWidth caps assignments network-wide (admin override, Table 1).
	MaxWidth spectrum.Width
	// Blocked is the mask of 20 MHz sub-channels under an active radar
	// non-occupancy period. Any candidate whose bonded width touches a
	// blocked sub-channel (ID.Mask intersects) is inadmissible this pass:
	// the planner never assigns it, never keeps an AP on it, and never
	// offers it as a DFS fallback.
	Blocked uint64
	// ChannelNoise is the band-wide non-WiFi occupancy sub-channel row
	// (e.g. sampled from a spectrum trace), added on top of each AP's own
	// ExternalUtil observation and capped at 1.
	ChannelNoise []float64
}

// StaleFraction reports the share of APs planned from stale or pinned
// (untrusted) telemetry.
func (in Input) StaleFraction() float64 {
	if len(in.APs) == 0 {
		return 0
	}
	n := 0
	for i := range in.APs {
		if in.APs[i].Stale || in.APs[i].Pinned {
			n++
		}
	}
	return float64(n) / float64(len(in.APs))
}

// The planner's fixed constants.
const (
	// switchPenalty24 replaces Config.SwitchPenalty on 2.4 GHz, where many
	// clients lack CSA support (§4.4.1 sets this "very high").
	switchPenalty24 float64 = 0.60
	// highUtilPenaltyBoost scales the penalty when utilization exceeds 90%
	// (§4.5.1: small variations halve NetP there, so demand a larger
	// margin before switching).
	highUtilPenaltyBoost float64 = 3.0
	// metricFloor keeps log(NodeP) finite when a channel is hopeless.
	metricFloor float64 = 1e-9
)

// Config holds the planner's tunables.
type Config struct {
	// SwitchPenalty is the base penalty_c subtracted from channel_metric
	// when a candidate differs from the AP's current channel.
	SwitchPenalty float64
	// Runs is the number of NBO rounds per hop limit per invocation;
	// scaled by network size when zero.
	Runs int
	// UniformPick disables the load-weighted AP pick on Algorithm 1's
	// line 8 (an ablation: §4.4.3 argues heavily loaded APs should plan
	// first and claim the cleaner channels).
	UniformPick bool
	// Workers is the number of NBO rounds evaluated concurrently within
	// one hop level. Zero means GOMAXPROCS. Results are byte-identical
	// for any worker count: every round draws from its own RNG stream
	// derived from (seed, hop level, round index).
	Workers int
	// Obs, when non-nil, receives the planner's metrics (pass/hop-level
	// timings, NetP trajectory, accept/reject counters — see obs.go) and
	// its registry's tracer its spans. Nil records nothing.
	Obs *obs.Scope
}

// DefaultConfig returns production-like tunables.
func DefaultConfig() Config {
	return Config{
		SwitchPenalty: 0.08,
	}
}

// Assignment is one AP's planned channel, with a non-DFS fallback
// maintained whenever the primary sits on a DFS channel (§4.5.2). The
// zero Fallback is none: the channel is not DFS, or nothing qualified.
type Assignment struct {
	Channel  spectrum.Channel
	Fallback spectrum.Channel
}

// Plan maps AP ID (APView.ID) to assignment.
type Plan map[int]Assignment

// Clone deep-copies a plan.
func (p Plan) Clone() Plan {
	out := make(Plan, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// widthFrac is capacity scaling per width slot (20/40/80/160), normalized
// to 160 MHz.
var widthFrac = [4]float64{0.125, 0.25, 0.5, 1.0}

// planner carries the immutable problem plus the per-AP rows, in Input.APs
// order, used by every evaluation.
type planner struct {
	cfg Config
	in  Input

	views []*APView
	// neigh[i] is views[i].Neighbors itself, or, when the input skipped
	// Sanitize, a copy without the entries that are no position.
	neigh [][]int
	// onAir is the AP's real current channel (spectrum.None when the AP
	// has no assignment yet): the switch-penalty anchor and the baseline
	// for switch counting. Never mutated.
	onAir []spectrum.ID
	// current is the working incumbent: it starts equal to onAir and
	// adopts the best plan found so far between hop levels, so deeper
	// NBO passes refine the shallower levels' winner (§4.4.3-4.4.4).
	current []spectrum.ID

	// Channels are spectrum table IDs throughout; adm answers which of
	// them an AP may take (admissible.go).
	adm admissibleSets

	// Precomputed per view:
	// load[i][cw][b] is load(b) under an assignment of width slot cw: the
	// usage share of clients whose effective width slot is b, scaled by the
	// AP's overall load so busy APs deviate more from NodeP = 1.
	load [][4][4]float64
	// extOf[i] is the worst external util per channel, indexed by ID and
	// filled for the input band's range only.
	extOf   [][]float64
	wq      []int64   // contention weight this AP exerts on neighbors, in quanta
	penBase []float64 // switch penalty before channel comparison
	// rev[revOff[x]:revOff[x+1]] lists every j whose neigh[j] holds x, once
	// per entry, in ascending j; mult[nbrOff[i]+k] is how many times i
	// appears in neigh[neigh[i][k]]. One allocation, never written after
	// newPlanner.
	revOff, rev, nbrOff, mult []int

	// Scratch state for one NBO pass. Only the writers below write assign,
	// ignore and current, and each re-resolves on: what neighbors see of
	// AP j, spectrum.None while j is in ψ (ignore), else assign[j] if set,
	// else current[j]. resolve keeps lvl in step with on.
	assign []spectrum.ID // spectrum.None = unassigned in the working plan
	ignore []bool
	on     []spectrum.ID
	lvl    []levelRow

	// accWalk's scratch: the AP's own contention by channel ID, in quanta,
	// and an entry per scored neighbor (sized by the largest degree).
	accOwn   []int64
	accTerms []accTerm

	// Allocation-free scratch for hopGroup's BFS: membership is "stamp ==
	// gen", so clearing between picks is a single counter increment.
	groupBuf []int
	eligGen  []int
	seenGen  []int
	gen      int
	remBuf   []int
}

func newPlanner(cfg Config, in Input) *planner {
	n := len(in.APs)
	p := &planner{
		cfg: cfg, in: in,
		adm:     newAdmissibleSets(in),
		views:   make([]*APView, n),
		neigh:   make([][]int, n),
		load:    make([][4][4]float64, n),
		extOf:   make([][]float64, n),
		wq:      make([]int64, n),
		penBase: make([]float64, n),
		ignore:  make([]bool, n),
		lvl:     newLevelRows(n),
	}
	p.bfsScratch()
	ids := make([]spectrum.ID, 4*n)
	for k := range ids {
		ids[k] = spectrum.None // nothing on the air yet: every level row is zero
	}
	p.onAir, p.current = ids[:n:n], ids[n:2*n:2*n]
	p.assign, p.on = ids[2*n:3*n:3*n], ids[3*n:]
	for i := range in.APs {
		p.views[i] = &in.APs[i]
	}
	lo, hi := spectrum.BandIDs(in.Band)
	ext := make([]float64, n*int(hi))
	maxDeg := 0
	for i, v := range p.views {
		// An AP that has never been assigned reports a zero-value Current,
		// and unsanitized telemetry can carry one that is no channel of
		// this band: both are "unassigned".
		p.onAir[i] = p.idOf(v.Current)
		p.neigh[i], _ = repairNeighbors(v.Neighbors, -1, n, nil)
		if len(p.neigh[i]) > maxNeighbors {
			p.neigh[i] = p.neigh[i][:maxNeighbors:maxNeighbors]
		}
		total := 0.0
		for _, s := range v.WidthLoad {
			total += s
		}
		var share [4]float64 // usage share of clients by max-width slot
		if total > 0 {
			for slot, s := range v.WidthLoad {
				if s > 0 {
					share[slot] += s / total
				}
			}
		} else {
			share[0] = 1
		}
		for cw := range p.load[i] {
			at := &p.load[i][cw]
			for s, sh := range share {
				at[min(s, cw)] += sh // wider clients collapse onto the assigned width
			}
			for b := range at[:cw+1] {
				at[b] *= v.Load
			}
		}
		p.wq[i] = quantize(0.2 + v.Load)
		p.penBase[i] = p.penaltyBase(v)
		p.extOf[i] = ext[i*int(hi) : (i+1)*int(hi) : (i+1)*int(hi)]
		for c := lo; c < hi; c++ {
			p.extOf[i][c] = p.extWorst(v, c.Mask())
		}
		maxDeg = max(maxDeg, len(p.neigh[i]))
	}
	p.accOwn, p.accTerms = make([]int64, hi), make([]accTerm, maxDeg)
	p.buildAdjacency()
	for i := range p.views {
		p.setCurrent(i, p.onAir[i])
	}
	return p
}

// buildAdjacency fills revOff, rev, nbrOff and mult from neigh.
func (p *planner) buildAdjacency() {
	n, e := len(p.neigh), 0
	for _, ns := range p.neigh {
		e += len(ns)
	}
	tbl := make([]int, 2*(n+1+e))
	p.revOff, p.nbrOff = tbl[:n+1:n+1], tbl[n+1:2*(n+1):2*(n+1)]
	p.rev, p.mult = tbl[2*(n+1):2*(n+1)+e:2*(n+1)+e], tbl[2*(n+1)+e:]
	for i, ns := range p.neigh {
		p.nbrOff[i+1] = p.nbrOff[i] + len(ns)
		for _, x := range ns {
			p.revOff[x]++
		}
	}
	for x := 1; x <= n; x++ {
		p.revOff[x] += p.revOff[x-1] // the end of x's run, until the fill
	}
	for j := n - 1; j >= 0; j-- { // backwards, so each run ascends
		for _, x := range p.neigh[j] {
			p.revOff[x]--
			p.rev[p.revOff[x]] = j
		}
	}
	for i, ns := range p.neigh {
		listers := p.rev[p.revOff[i]:p.revOff[i+1]]
		for k, j := range ns {
			p.mult[p.nbrOff[i]+k] = sort.SearchInts(listers, j+1) - sort.SearchInts(listers, j)
		}
	}
}

// idOf resolves a channel from outside the planner (an AP's Current, a
// plan entry) to its table ID; anything that is not a US channel of the
// input band reads as unassigned.
func (p *planner) idOf(c spectrum.Channel) spectrum.ID {
	if c.Band != p.in.Band {
		return spectrum.None
	}
	id, _ := spectrum.IDOf(c)
	return id
}

// extWorst is the worst per-sub-channel external utilization across a
// channel's bonded width, with band-wide trace noise stacked on top of
// the AP's own observation (both are non-WiFi energy; their overlap is
// unknowable, so add and cap — the pessimistic reading a scanning radio
// would report). mask is the channel's ID.Mask.
func (p *planner) extWorst(v *APView, mask uint64) float64 {
	worst := 0.0
	for ; mask != 0; mask &= mask - 1 {
		s := bits.TrailingZeros64(mask)
		u := rowAt(v.ExternalUtil, s) + rowAt(p.in.ChannelNoise, s)
		if u > 1 {
			u = 1
		}
		if u > worst {
			worst = u
		}
	}
	return worst
}

// rowAt reads position s of a sub-channel row; a row that stops short of
// s has nothing there.
func rowAt(row []float64, s int) float64 {
	if s < len(row) {
		return row[s]
	}
	return 0
}

// penaltyBase computes the per-AP part of penalty_c (§4.4.1, §4.5.1).
func (p *planner) penaltyBase(v *APView) float64 {
	if !v.HasClients {
		return 0 // nothing to disrupt
	}
	base := p.cfg.SwitchPenalty
	if p.in.Band == spectrum.Band2G4 {
		base = switchPenalty24
	}
	// Clients without CSA support must rescan: scale with their share.
	base *= 0.4 + 0.6*(1-v.CSAFraction)
	// §4.5.1: at very high utilization NetP is so volatile that switches
	// must clear a much higher bar.
	if v.Utilization > 0.9 {
		base *= highUtilPenaltyBoost
	}
	return base
}

// cloneScratch returns a planner that shares every immutable table with p
// (views, neigh, extOf, load, wq, penBase, the adjacency tables,
// onAir, current) but owns its own assign/ignore/on/lvl and ACC scratch
// state, so concurrent NBO rounds can run on clones without
// synchronization. The shared current slice is only mutated between hop
// levels, when no clone is running. The clone starts with nothing
// assigned; nbo's reset resolves it again before every round.
func (p *planner) cloneScratch() *planner {
	cp := *p
	n := len(p.assign)
	ids := make([]spectrum.ID, 2*n)
	cp.assign, cp.on = ids[:n:n], ids[n:]
	cp.ignore = make([]bool, n)
	cp.lvl = newLevelRows(n)
	cp.accOwn = make([]int64, len(p.accOwn))
	cp.accTerms = make([]accTerm, len(p.accTerms))
	cp.bfsScratch()
	cp.unassignAll()
	return &cp
}

// bfsScratch gives p its own nbo and hopGroup scratch, in one allocation.
func (p *planner) bfsScratch() {
	n := len(p.views)
	ints := make([]int, 3*n)
	p.eligGen, p.seenGen, p.remBuf = ints[:n:n], ints[n:2*n:2*n], ints[2*n:2*n]
	p.groupBuf, p.gen = nil, 0
}

// The working state's writers: every write to assign, ignore and current
// goes through one of them, and each re-resolves on for what it wrote.
func (p *planner) setAssign(i int, c spectrum.ID)  { p.assign[i] = c; p.resolve(i) }
func (p *planner) setIgnore(i int, psi bool)       { p.ignore[i] = psi; p.resolve(i) }
func (p *planner) setCurrent(i int, c spectrum.ID) { p.current[i] = c; p.resolve(i) }

// unassignAll clears the working plan and ψ: every AP shows its incumbent,
// and every level row is rebuilt.
func (p *planner) unassignAll() {
	for i := range p.assign {
		p.assign[i], p.ignore[i], p.on[i] = spectrum.None, false, p.current[i]
	}
	for i := range p.lvl {
		p.levels(i)
	}
}

// resolve re-resolves on[x] and, when it moved, moves x's weight across
// the level rows of every AP that lists x and rebuilds x's own row.
func (p *planner) resolve(x int) {
	was, now := p.on[x], p.current[x]
	switch {
	case p.ignore[x]:
		now = spectrum.None
	case p.assign[x] != spectrum.None:
		now = p.assign[x]
	}
	if now == was {
		return
	}
	p.on[x] = now
	for _, j := range p.rev[p.revOff[x]:p.revOff[x+1]] {
		if nc := p.on[j]; nc != spectrum.None && j != x {
			shift(&p.lvl[j].q, nc, was, -p.wq[x])
			shift(&p.lvl[j].q, nc, now, p.wq[x])
		}
	}
	p.levels(x)
}

// shift adds w to the levels of nc that c overlaps (none when c is none).
func shift(q *[4]int64, nc, c spectrum.ID, w int64) {
	if c != spectrum.None {
		for b, cw := nc.FirstOverlap(c), nc.Channel().Width.Slot(); b <= cw; b++ {
			q[b] += w
		}
	}
}

// Contention lives on a grid (DESIGN §3.5): every weight is a whole number
// of quanta and no neighbor list sums to 2⁵³ quanta, so every float sum of
// weights is exact, whatever its order, and equals its int64 twin.
const (
	quantum      = 0x1p-32
	maxNeighbors = 1 << 14 // the most entries of a neighbor list the planner reads
	// maxWeightQ bounds a weight's magnitude in quanta (just under 128,
	// above any sane 0.2 + Load), so maxNeighbors of them stay below 2⁵³.
	maxWeightQ = 1<<53/maxNeighbors - 1
)

// Format numbers the planner's arithmetic: a plan or ln NetP recorded under
// one format replays bit for bit only under the same one. Format 1 puts
// contention on the grid. Format 2 draws NBO's round streams from
// SplitMix64 (sim.NewRNG) and folds the input digest a word per step.
const Format = 2

// quantize puts a contention weight on the grid: x rounded to the nearest
// whole number of quanta, NaN as 0, and anything beyond ±maxWeightQ quanta
// (±Inf included) clamped there. A negative weight, which only a negative
// load on unsanitized input gives, keeps its sign.
func quantize(x float64) int64 {
	q := math.Round(x / quantum)
	if q != q {
		return 0
	}
	return int64(max(-maxWeightQ, min(q, maxWeightQ)))
}

// levelRow is AP j's kept contention: q[b] is the quanta of the neigh[j]
// entries whose on overlaps on[j].AtWidth(b), each entry counted as often
// as it appears; levels past on[j]'s width, and all of them while on[j] is
// none, are zero. memo[b] holds levelTerm at level b for the last channel
// and quanta it was asked for.
type levelRow struct {
	q    [4]int64
	memo [4]struct {
		nc spectrum.ID
		q  int64
		v  float64
	}
}

// newLevelRows returns n zero level rows with empty memos.
func newLevelRows(n int) []levelRow {
	rows := make([]levelRow, n)
	for j := range rows {
		for b := range rows[j].memo {
			rows[j].memo[b].nc = spectrum.None
		}
	}
	return rows
}

// levels rebuilds lvl[x] by one walk of neigh[x].
func (p *planner) levels(x int) {
	var q [4]int64
	if nc := p.on[x]; nc != spectrum.None {
		for _, k := range p.neigh[x] {
			shift(&q, nc, p.on[k], p.wq[k])
		}
	}
	p.lvl[x].q = q
}

// storedTerm is levelTerm for j on nc at level b with j's kept contention
// lvl[j].q[b], memoised per (j, level) on the channel and the quanta. All
// other inputs are fixed by j, nc and b, so the memo is exact.
func (p *planner) storedTerm(j int, nc spectrum.ID, b int, load float64) float64 {
	q, m := p.lvl[j].q[b], &p.lvl[j].memo[b]
	if m.nc != nc || m.q != q {
		m.nc, m.q, m.v = nc, q, p.levelTerm(j, nc, b, load, float64(q)*quantum)
	}
	return m.v
}

// levelTerm is one factor of NodeP in log form, load(b)·ln channel_metric
// for i on channel c at width slot b with the given contention, which
// storedTerm and neighborTerm hand it from kept level sums on the grid
// (accScores forms the same product from its memo of logMetric). The
// product rounds before the add its callers do, so no platform fuses it
// and every caller agrees with the definition to the bit.
func (p *planner) levelTerm(i int, c spectrum.ID, b int, load, contention float64) float64 {
	return float64(load * p.logMetric(i, c.AtWidth(b), b, c != p.onAir[i], contention))
}

// logMetric is ln channel_metric for i on view, the width-slot-b view of
// its channel (AtWidth(b)), where moved says the channel is not i's
// on-air one:
//
//	channel_metric(c,b) = airtime(c,b)·capacity(c,b) − penalty_c
//
// with airtime the idle share after external interference divided among i
// and its co-channel contention, and capacity width scaling times channel
// quality after non-WiFi interference (§4.4.1). It is the formula's only
// evaluation, and the product rounds before the subtraction, so no
// platform fuses the two.
func (p *planner) logMetric(i int, view spectrum.ID, b int, moved bool, contention float64) float64 {
	// The penalty anchors to the channel clients are actually on, not the
	// working incumbent: adopting a best-so-far plan between hop levels must
	// not erase the cost of leaving it. A first assignment disrupts nobody.
	pen := 0.0
	if moved && p.onAir[i] != spectrum.None {
		pen = p.penBase[i]
	}
	ext := p.extOf[i][view]
	idle := 1 - ext
	if idle < 0 {
		idle = 0
	}
	capacity := widthFrac[b] * (1 - 0.5*ext)
	metric := float64(idle/(1+contention)*capacity) - pen
	if metric < metricFloor {
		metric = metricFloor
	}
	return math.Log(metric)
}

// logNodeP is ln NodeP(i, on[i]) under the working state,
//
//	NodeP(c, cw) = Π_{b=20MHz}^{cw} channel_metric(c,b)^{load(b)}
//
// with i's contention read from its kept level row.
func (p *planner) logNodeP(i int) float64 {
	c := p.on[i]
	cw := c.Channel().Width.Slot()
	sum := 0.0
	for b := 0; b <= cw; b++ {
		if load := p.load[i][cw][b]; load != 0 {
			sum += p.storedTerm(i, c, b, load)
		}
	}
	return sum
}

// logNetP sums ln NodeP over every AP under the working state (NetP is
// the product of NodeP, §4.4.1). An AP with no channel delivers no
// service, so it contributes its floor — NodeP = metricFloor^Load — not a
// perfect 1: otherwise an all-unassigned baseline would beat every real
// plan and a greenfield network could never get its first assignments.
func (p *planner) logNetP() float64 {
	sum := 0.0
	for i := range p.views {
		c := p.on[i]
		if c == spectrum.None {
			sum += p.views[i].Load * math.Log(metricFloor)
			continue
		}
		sum += p.logNodeP(i)
	}
	return sum
}

// loadAssign installs a Plan map into the scratch assignment state.
func (p *planner) loadAssign(plan Plan) {
	p.unassignAll()
	for i, v := range p.views {
		if a, ok := plan[v.ID]; ok {
			p.setAssign(i, p.idOf(a.Channel))
		}
	}
}

// NetP evaluates ln NetP of a plan against the input (exported for tests,
// benchmarks, and the service's accept/reject decision).
func NetP(cfg Config, in Input, plan Plan) float64 {
	p := newPlanner(cfg, in)
	p.loadAssign(plan)
	return p.logNetP()
}

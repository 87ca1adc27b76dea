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

// Config holds the planner's tunables.
type Config struct {
	// SwitchPenalty is the base penalty_c subtracted from channel_metric
	// when a candidate differs from the AP's current channel.
	SwitchPenalty float64
	// SwitchPenalty24 replaces it on 2.4 GHz, where many clients lack CSA
	// support (§4.4.1 sets this "very high").
	SwitchPenalty24 float64
	// HighUtilPenaltyBoost scales the penalty when utilization exceeds
	// 90% (§4.5.1: small variations halve NetP there, so demand a larger
	// margin before switching).
	HighUtilPenaltyBoost float64
	// Runs is the number of NBO rounds per hop limit per invocation;
	// scaled by network size when zero.
	Runs int
	// MetricFloor keeps log(NodeP) finite when a channel is hopeless.
	MetricFloor float64
	// UniformPick disables the load-weighted AP pick on Algorithm 1's
	// line 8 (an ablation: §4.4.3 argues heavily loaded APs should plan
	// first and claim the cleaner channels).
	UniformPick bool
	// Workers is the number of NBO rounds evaluated concurrently within
	// one hop level. Zero means GOMAXPROCS. Results are byte-identical
	// for any worker count: every round draws from its own RNG stream
	// derived from (seed, hop level, round index).
	Workers int
	// Obs, when non-nil, redirects the planner's metrics (pass/hop-level
	// timings, NetP trajectory, accept/reject counters — see obs.go) to a
	// private scope instead of the process-wide default registry. Tests
	// use this for isolated, deterministic snapshots.
	Obs *obs.Scope
}

// DefaultConfig returns production-like tunables.
func DefaultConfig() Config {
	return Config{
		SwitchPenalty:        0.08,
		SwitchPenalty24:      0.60,
		HighUtilPenaltyBoost: 3.0,
		MetricFloor:          1e-9,
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
	weight  []float64 // contention weight this AP exerts on neighbors
	penBase []float64 // switch penalty before channel comparison

	// Scratch state for one NBO pass. Only the writers below write assign,
	// ignore and current, and each re-resolves on: what neighbors see of
	// AP j, spectrum.None while j is in ψ (ignore), else assign[j] if set,
	// else current[j].
	assign []spectrum.ID // spectrum.None = unassigned in the working plan
	ignore []bool
	on     []spectrum.ID

	// accWalk's scratch: the AP's own contention by channel ID, and an
	// entry per scored neighbor (sized by the largest degree).
	accOwn   []float64
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
	if cfg.MetricFloor == 0 {
		cfg.MetricFloor = 1e-9
	}
	n := len(in.APs)
	p := &planner{
		cfg: cfg, in: in,
		adm:     newAdmissibleSets(in),
		views:   make([]*APView, n),
		neigh:   make([][]int, n),
		load:    make([][4][4]float64, n),
		extOf:   make([][]float64, n),
		weight:  make([]float64, n),
		penBase: make([]float64, n),
		ignore:  make([]bool, n),
		eligGen: make([]int, n),
		seenGen: make([]int, n),
		remBuf:  make([]int, 0, n),
	}
	ids := make([]spectrum.ID, 4*n)
	p.onAir, p.current = ids[:n:n], ids[n:2*n:2*n]
	p.assign, p.on = ids[2*n:3*n:3*n], ids[3*n:]
	p.unassignAll()
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
		p.setCurrent(i, p.onAir[i])
		p.neigh[i], _ = repairNeighbors(v.Neighbors, -1, n, nil)
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
		p.weight[i] = 0.2 + v.Load
		p.penBase[i] = p.penaltyBase(v)
		p.extOf[i] = ext[i*int(hi) : (i+1)*int(hi) : (i+1)*int(hi)]
		for c := lo; c < hi; c++ {
			p.extOf[i][c] = p.extWorst(v, c.Mask())
		}
		maxDeg = max(maxDeg, len(p.neigh[i]))
	}
	p.accOwn, p.accTerms = make([]float64, hi), make([]accTerm, maxDeg)
	return p
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
		base = p.cfg.SwitchPenalty24
	}
	// Clients without CSA support must rescan: scale with their share.
	base *= 0.4 + 0.6*(1-v.CSAFraction)
	// §4.5.1: at very high utilization NetP is so volatile that switches
	// must clear a much higher bar.
	if v.Utilization > 0.9 {
		base *= p.cfg.HighUtilPenaltyBoost
	}
	return base
}

// cloneScratch returns a planner that shares every immutable table with p
// (views, neigh, extOf, load, weight, penBase, onAir, current)
// but owns its own assign/ignore/on and ACC scratch state, so concurrent NBO
// rounds can run on clones without synchronization. The shared current
// slice is only mutated between hop levels, when no clone is running. The
// clone's working state is unset: nbo's reset resolves it from current
// before every round.
func (p *planner) cloneScratch() *planner {
	cp := *p
	n := len(p.assign)
	ids := make([]spectrum.ID, 2*n)
	cp.assign, cp.on = ids[:n:n], ids[n:]
	cp.ignore = make([]bool, n)
	cp.accOwn = make([]float64, len(p.accOwn))
	cp.accTerms = make([]accTerm, len(p.accTerms))
	cp.groupBuf = nil
	cp.eligGen = make([]int, n)
	cp.seenGen = make([]int, n)
	cp.gen = 0
	cp.remBuf = make([]int, 0, n)
	return &cp
}

// The working state's writers: every write to assign, ignore and current
// goes through one of them, and each re-resolves on for what it wrote.
func (p *planner) setAssign(i int, c spectrum.ID)  { p.assign[i] = c; p.resolve(i) }
func (p *planner) setIgnore(i int, psi bool)       { p.ignore[i] = psi; p.resolve(i) }
func (p *planner) setCurrent(i int, c spectrum.ID) { p.current[i] = c; p.resolve(i) }

// unassignAll clears the working plan and ψ: every AP shows its incumbent.
func (p *planner) unassignAll() {
	for i := range p.assign {
		p.assign[i], p.ignore[i], p.on[i] = spectrum.None, false, p.current[i]
	}
}

func (p *planner) resolve(i int) {
	switch {
	case p.ignore[i]:
		p.on[i] = spectrum.None
	case p.assign[i] != spectrum.None:
		p.on[i] = p.assign[i]
	default:
		p.on[i] = p.current[i]
	}
}

// contention sums the weights of i's neighbors whose channel under the
// working state overlaps sub: the co-channel load i shares sub's airtime
// with (§4.4.1).
func (p *planner) contention(i int, sub spectrum.ID) float64 {
	contention := 0.0
	mask := sub.Mask()
	for _, j := range p.neigh[i] {
		nc := p.on[j]
		if nc != spectrum.None && mask&nc.Mask() != 0 {
			contention += p.weight[j]
		}
	}
	return contention
}

// levelTerm is one factor of NodeP in log form, load(b)·ln channel_metric
// for i on channel c at width slot b:
//
//	channel_metric(c,b) = airtime(c,b)·capacity(c,b) − penalty_c
//
// with airtime the idle share after external interference divided among i
// and its co-channel contention, and capacity width scaling times channel
// quality after non-WiFi interference (§4.4.1). It is the formula's only
// evaluation — logNodeP hands it contention(), ACC the same sum from its
// own walk — and it rounds before the subtraction and before the add its
// callers do, so no platform fuses either and the two agree to the bit.
func (p *planner) levelTerm(i int, c spectrum.ID, b int, load, contention float64) float64 {
	// The penalty anchors to the channel clients are actually on, not the
	// working incumbent: adopting a best-so-far plan between hop levels must
	// not erase the cost of leaving it. A first assignment disrupts nobody.
	pen := 0.0
	if p.onAir[i] != spectrum.None && c != p.onAir[i] {
		pen = p.penBase[i]
	}
	ext := p.extOf[i][c.AtWidth(b)]
	idle := 1 - ext
	if idle < 0 {
		idle = 0
	}
	capacity := widthFrac[b] * (1 - 0.5*ext)
	metric := float64(idle/(1+contention)*capacity) - pen
	if metric < p.cfg.MetricFloor {
		metric = p.cfg.MetricFloor
	}
	return float64(load * math.Log(metric))
}

// logNodeP computes ln NodeP(i, c) under the working state:
//
//	NodeP(c, cw) = Π_{b=20MHz}^{cw} channel_metric(c,b)^{load(b)}
func (p *planner) logNodeP(i int, c spectrum.ID) float64 { return p.nodeP(i, c, nil) }

// nodeP is logNodeP with i's contention on a channel read from own, a row
// indexed by ID, when the caller has one (ACC); nil walks the neighbors.
func (p *planner) nodeP(i int, c spectrum.ID, own []float64) float64 {
	cw := c.Channel().Width.Slot()
	sum := 0.0
	for b := 0; b <= cw; b++ {
		load := p.load[i][cw][b]
		if load == 0 {
			continue
		}
		if sub := c.AtWidth(b); own != nil {
			sum += p.levelTerm(i, c, b, load, own[sub])
		} else {
			sum += p.levelTerm(i, c, b, load, p.contention(i, sub))
		}
	}
	return sum
}

// logNetP sums ln NodeP over every AP under the working state (NetP is
// the product of NodeP, §4.4.1). An AP with no channel delivers no
// service, so it contributes its floor — NodeP = MetricFloor^Load — not a
// perfect 1: otherwise an all-unassigned baseline would beat every real
// plan and a greenfield network could never get its first assignments.
func (p *planner) logNetP() float64 {
	sum := 0.0
	for i := range p.views {
		c := p.on[i]
		if c == spectrum.None {
			sum += p.views[i].Load * math.Log(p.cfg.MetricFloor)
			continue
		}
		sum += p.logNodeP(i, c)
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

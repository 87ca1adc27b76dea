package turboca

import (
	"math"
	"sort"

	"repro/internal/spectrum"
)

// Evaluator exposes the planner's exact NodeP/NetP machinery, by AP
// position, to external exhaustive searchers (internal/oracle). It wraps the
// same planner NBO evaluates with — same spectrum table IDs, same
// index-ordered summation — so a score computed here is bitwise comparable
// to RunNBO's LogNetP and to NetP() on the same (canonically ordered)
// input.
//
// The working state differs from NBO's in one deliberate way: the
// incumbent layer (planner.current) is cleared, so an AP the caller has
// not assigned is invisible to its neighbors' airtime instead of appearing
// on its on-air channel. A branch-and-bound search decides APs one at a
// time, and "undecided contributes no contention" is exactly the relaxation
// that makes the per-AP best-case NodeP an admissible (optimistic) bound:
// later assignments can only add contention, never remove it. The switch
// penalty still anchors to the real on-air channel (planner.onAir is kept),
// so leaf scores price moves identically to NBO.
//
// An Evaluator is not safe for concurrent use.
type Evaluator struct {
	p     *planner
	cands [][]int
}

// Unassigned is the Evaluator's channel sentinel for "no channel": as a
// candidate it is the choice of leaving a never-assigned AP off the air
// (contributing its NodeP floor, exactly as logNetP scores it), and as an
// Assign argument it clears a previous assignment.
const Unassigned = int(spectrum.None)

// NewEvaluator builds an evaluator over one band's planning problem. The
// per-AP candidate lists are admissibleSets.reachable — the same provider
// ACC, the DFS fallback and ReservedCA draw from, plus staying on the air
// and the never-assigned state — so they are a feasibility superset of
// everything the greedy planners can produce, which is what makes an
// exhaustive search over them a true upper bound for RunNBO and
// RunReservedCA (on inputs the latter respects pinning for — it never
// checks).
func NewEvaluator(cfg Config, in Input) *Evaluator {
	p := newPlanner(cfg, in)
	// Clear the incumbent layer: channelOf must reflect only what the
	// caller has assigned. onAir is untouched (penalty anchoring).
	for i := range p.current {
		p.current[i] = spectrum.None
	}
	e := &Evaluator{p: p, cands: make([][]int, len(p.views))}
	for i, v := range p.views {
		for _, c := range p.adm.reachable(v, p.onAir[i]) {
			e.cands[i] = append(e.cands[i], int(c))
		}
	}
	return e
}

// NumAPs returns the problem size.
func (e *Evaluator) NumAPs() int { return len(e.p.views) }

// APID returns the label of the AP at position i.
func (e *Evaluator) APID(i int) int { return e.p.views[i].ID }

// Load returns an AP's traffic weight.
func (e *Evaluator) Load(i int) float64 { return e.p.views[i].Load }

// Pinned reports whether the AP is frozen on its current channel.
func (e *Evaluator) Pinned(i int) bool { return e.p.views[i].Pinned }

// Neighbors returns the positions of AP i's neighbors. The slice is shared
// state — callers must not mutate it.
func (e *Evaluator) Neighbors(i int) []int { return e.p.neigh[i] }

// Candidates returns AP i's channel candidates (spectrum.ID values, possibly
// ending with Unassigned). The slice is shared state — callers must not
// mutate it.
func (e *Evaluator) Candidates(i int) []int { return e.cands[i] }

// OnAir returns the AP's real current channel as a spectrum.ID value, or
// Unassigned when it has none.
func (e *Evaluator) OnAir(i int) int { return int(e.p.onAir[i]) }

// Channel resolves a candidate to its spectrum.Channel.
func (e *Evaluator) Channel(c int) spectrum.Channel { return spectrum.ID(c).Channel() }

// Assign sets AP i's working channel (Unassigned clears it).
func (e *Evaluator) Assign(i, c int) { e.p.assign[i] = spectrum.ID(c) }

// NodeP returns ln NodeP(i, c) under the current working assignment: the
// exact per-AP term logNetP would sum for i if it held channel c. For
// Unassigned it returns the AP's floor contribution. The working state is
// left unchanged.
func (e *Evaluator) NodeP(i, c int) float64 {
	if c == Unassigned {
		return e.p.views[i].Load * math.Log(e.p.cfg.MetricFloor)
	}
	prev := e.p.assign[i]
	e.p.assign[i] = spectrum.ID(c)
	v := e.p.logNodeP(i, spectrum.ID(c))
	e.p.assign[i] = prev
	return v
}

// LogNetP returns ln NetP of the working assignment: the full re-sum in
// dense index order, the same reduction logNetP/NetP use — never a cached
// or delta path, so bound bookkeeping drift cannot leak into leaf scores.
func (e *Evaluator) LogNetP() float64 { return e.p.logNetP() }

// Plan snapshots the working assignment as an exported Plan, computing
// non-DFS fallbacks for DFS assignments exactly as NBO does.
func (e *Evaluator) Plan() Plan { return e.p.snapshotPlan() }

// CanonicalInput returns in with its APs sorted by ID (a copy; the
// argument is untouched). Evaluation order — and therefore the low bits of
// every float summation — follows position order, so two callers that
// canonicalize first agree bitwise no matter how their AP slices were
// permuted. Neighbor lists keep their order and are renumbered to the
// sorted positions (repairNeighbors: in a slice of their own).
func CanonicalInput(in Input) Input {
	order := make([]int, len(in.APs)) // order[new] = old
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return in.APs[order[a]].ID < in.APs[order[b]].ID })
	moved := make([]int, len(order)) // moved[old] = new
	for to, from := range order {
		moved[from] = to
	}
	out := in
	out.APs = make([]APView, len(order))
	for to, from := range order {
		out.APs[to] = in.APs[from]
		out.APs[to].Neighbors, _ = repairNeighbors(in.APs[from].Neighbors, -1, len(order), moved)
	}
	return out
}

package oracle

import (
	"math/rand"

	"repro/internal/spectrum"
	"repro/internal/turboca"
)

// GapResult measures the heuristics against the oracle on one scenario.
// All four scores are computed by re-evaluating each plan through
// turboca.NetP on the same canonicalized input, so they share one
// summation order and are directly comparable.
type GapResult struct {
	// OracleLogNetP is the oracle incumbent's ln NetP; Bound its proven
	// upper bound (equal when Proven).
	OracleLogNetP float64
	Bound         float64
	Proven        bool
	// Nodes the oracle expanded for this scenario.
	Nodes int

	// NBOLogNetP / ReservedLogNetP score the two heuristics' plans.
	NBOLogNetP      float64
	ReservedLogNetP float64

	// Gap is OracleLogNetP − NBOLogNetP: how much ln NetP the greedy
	// planner left on the table against the best *found* plan (≥ 0 up to
	// float tolerance whenever Proven). BoundGap is Bound − NBOLogNetP:
	// the worst case against the unexplored remainder — the honest number
	// to report when Proven is false.
	Gap      float64
	BoundGap float64

	// The plans themselves, for callers that want to diff assignments.
	OraclePlan   turboca.Plan
	NBOPlan      turboca.Plan
	ReservedPlan turboca.Plan
}

// GapOptions parameterizes one Gap evaluation.
type GapOptions struct {
	// Solve budget for the oracle (zero values take Solve's defaults).
	Solve Options
	// Seed drives NBO's randomized rounds (deterministic per seed).
	Seed int64
}

// Gap runs the oracle, NBO, and ReservedCA on one scenario and reports the
// optimality gap. NBO runs the backend's daily schedule, hops [2, 1, 0],
// and ReservedCA its fixed 20 MHz width. The input is canonicalized once
// so all three see APs in the same dense order and every score is bitwise
// comparable.
func Gap(cfg turboca.Config, in turboca.Input, opt GapOptions) GapResult {
	in = turboca.CanonicalInput(in)
	orc := Solve(cfg, in, opt.Solve)
	nbo := turboca.RunNBO(cfg, in, rand.New(rand.NewSource(opt.Seed)), []int{2, 1, 0})
	rca := turboca.RunReservedCA(cfg, in, spectrum.W20)

	g := GapResult{
		Bound:        orc.Bound,
		Proven:       orc.Proven,
		Nodes:        orc.Nodes,
		OraclePlan:   orc.Plan,
		NBOPlan:      nbo.Plan,
		ReservedPlan: rca.Plan,
	}
	// Re-score every plan through the one public evaluator. For the
	// oracle this must agree with Result.LogNetP bitwise: same planner
	// construction, same dense order, same reduction.
	g.OracleLogNetP = turboca.NetP(cfg, in, orc.Plan)
	g.NBOLogNetP = turboca.NetP(cfg, in, nbo.Plan)
	g.ReservedLogNetP = turboca.NetP(cfg, in, rca.Plan)
	g.Gap = g.OracleLogNetP - g.NBOLogNetP
	g.BoundGap = g.Bound - g.NBOLogNetP
	return g
}

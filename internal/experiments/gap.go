package experiments

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/oracle"
)

// gapSeeds returns the per-scenario seed count of the optimality-gap
// campaign.
func (o Options) gapSeeds() int {
	if o.Quick {
		return 4
	}
	return 12
}

// gapBudget caps each exact solve. Dense 12-AP cliques can want millions
// of nodes; the campaign's contract only needs a certified bound, so
// exhausted runs honestly report proven=false instead of stalling the
// suite.
func (o Options) gapBudget() oracle.Options {
	if o.Quick {
		return oracle.Options{MaxNodes: 50_000}
	}
	return oracle.Options{MaxNodes: 100_000}
}

// optimalityGap measures how far the paper's greedy NBO sits from the
// exact optimum on small topologies: for every scenario family and size,
// the branch-and-bound oracle either proves the optimal NetP or returns a
// certified upper bound, and NBO and ReservedCA are scored against it.
// Gaps are reported in ln NetP (a gap of g means NBO's NetP is e^-g of
// optimal). The paper never quantifies this — the campaign is this
// repository's answer to "how good is the heuristic?".
func optimalityGap(s *Session, r *Report) {
	opt := s.Opt
	sizes := []int{6, 9, 12}
	seeds := opt.gapSeeds()
	r.Notes = fmt.Sprintf("%d seeds per (family, size); gap = oracle − NBO; reserved = oracle − ReservedCA(W20); unproven runs report against the certified bound.", seeds)

	var allGaps []float64
	total, proven := 0, 0
	for _, kind := range oracle.Kinds {
		for _, n := range sizes {
			var worstBound, sumGap, sumRCA float64
			for seed := 0; seed < seeds; seed++ {
				base := int64(n)*1_000_003 + opt.Seed*7919 + int64(seed)
				cfg, in := oracle.Scenario(kind, n, rand.New(rand.NewSource(base)))
				cfg.Obs = s.reg.Scope("turboca")
				g := oracle.Gap(cfg, in, oracle.GapOptions{Seed: base + 1, Solve: opt.gapBudget()})
				total++
				if g.Proven {
					proven++
				}
				sumGap += g.BoundGap
				sumRCA += g.Bound - g.ReservedLogNetP
				if g.BoundGap > worstBound {
					worstBound = g.BoundGap
				}
				allGaps = append(allGaps, g.BoundGap)
			}
			name := fmt.Sprintf("%s_n%d_", kind, n)
			r.Rows = append(r.Rows, Row{
				fmt.Sprintf("%s n=%d: mean gap / worst gap / mean rca gap", kind, n),
				"n/a (not measured)", "%.3f / %.3f / %.3f", []Value{
					{name + "gap_mean", sumGap / float64(seeds)}, {name + "gap_worst", worstBound},
					{name + "rca_gap_mean", sumRCA / float64(seeds)}}})
		}
	}

	sort.Float64s(allGaps)
	q := func(p float64) float64 { return allGaps[int(p*float64(len(allGaps)-1))] }
	r.Rows = append(r.Rows,
		Row{"gap distribution p50 / p90 / max", "n/a", "%.3f / %.3f / %.3f", []Value{
			{"gap_p50", q(0.50)}, {"gap_p90", q(0.90)}, {"gap_max", allGaps[len(allGaps)-1]}}},
		Row{"scenarios proven optimal", "n/a", "%.0f/%.0f", []Value{
			{"proven", float64(proven)}, {"scenarios", float64(total)}}},
	)
}

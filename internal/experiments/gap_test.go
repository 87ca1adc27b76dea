package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/oracle"
)

// TestGapCampaign is the `make gap` entry point: across every scenario
// family at 6/9/12 APs it asserts the acceptance contract — NBO always
// sits within the oracle's certified bound, exhausted-budget runs say so
// via Proven=false while still returning an incumbent and a bound, and
// proven runs dominate both heuristics.
func TestGapCampaign(t *testing.T) {
	const tol = 1e-6
	opt := Options{Seed: 1}
	seeds := 3
	if testing.Short() {
		seeds = 1
	}
	for _, kind := range oracle.Kinds {
		for _, n := range []int{6, 9, 12} {
			for seed := 0; seed < seeds; seed++ {
				base := int64(n)*1_000_003 + opt.Seed*7919 + int64(seed)
				cfg, in := oracle.Scenario(kind, n, rand.New(rand.NewSource(base)))
				g := oracle.Gap(cfg, in, oracle.GapOptions{Seed: base + 1, Solve: opt.gapBudget()})

				if g.NBOLogNetP > g.Bound+tol {
					t.Errorf("%s n=%d seed %d: NBO %f outside certified bound %f",
						kind, n, seed, g.NBOLogNetP, g.Bound)
				}
				if g.Bound < g.OracleLogNetP-tol {
					t.Errorf("%s n=%d seed %d: bound %f below incumbent %f",
						kind, n, seed, g.Bound, g.OracleLogNetP)
				}
				if g.Proven {
					if g.Gap < -tol {
						t.Errorf("%s n=%d seed %d: NBO beats proven optimum by %f", kind, n, seed, -g.Gap)
					}
					if g.ReservedLogNetP > g.OracleLogNetP+tol {
						t.Errorf("%s n=%d seed %d: ReservedCA %f beats proven optimum %f",
							kind, n, seed, g.ReservedLogNetP, g.OracleLogNetP)
					}
				}
			}
		}
	}

	rep := run(t, NewSession(Options{Seed: 1, Quick: true}), "oracle")[0]
	if len(rep.Rows) < len(oracle.Kinds)*3+2 {
		t.Errorf("campaign report has %d rows, want at least %d", len(rep.Rows), len(oracle.Kinds)*3+2)
	}
}

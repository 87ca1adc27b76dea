package oracle

import (
	"math/bits"
	"math/rand"
	"testing"
	"time"

	"repro/internal/spectrum"
	"repro/internal/turboca"
)

// tol absorbs the solver's bound-pruning slack: a pruned subtree may hide
// a leaf up to `slack` better than the incumbent, so "proven optimal"
// means optimal within this tolerance.
const tol = 1e-6

// propertySeeds matches the planner's own property suite.
const propertySeeds = 120

// randomNetwork builds a pinned-free random planning problem of at most
// maxAPs APs. It mirrors the turboca property generator (random band,
// widths, loads, interference, greenfield APs, even DFS residue currents)
// but never pins: RunReservedCA ignores pinning, so a pinned input would
// let the static baseline move APs the oracle must hold fixed.
func randomNetwork(r *rand.Rand, maxAPs int) turboca.Input {
	in := turboca.Input{Band: spectrum.Band5, AllowDFS: r.Intn(2) == 0}
	if r.Intn(8) == 0 {
		in.Band = spectrum.Band2G4
	}
	widths := []spectrum.Width{spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160}
	in.MaxWidth = widths[r.Intn(len(widths))]
	if in.Band == spectrum.Band2G4 {
		in.MaxWidth = spectrum.W20
	}
	currents := spectrum.AllChannels(in.Band, in.MaxWidth, true)

	n := 3 + r.Intn(maxAPs-2)
	for i := 0; i < n; i++ {
		v := turboca.APView{
			ID:          i,
			MaxWidth:    widths[r.Intn(len(widths))],
			HasClients:  r.Float64() < 0.7,
			CSAFraction: r.Float64(),
			Load:        r.Float64() * 8,
			Utilization: r.Float64(),
		}
		if in.Band == spectrum.Band2G4 {
			v.MaxWidth = spectrum.W20
		}
		if r.Float64() < 0.8 {
			v.Current = currents[r.Intn(len(currents))]
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			v.WidthLoad[r.Intn(len(widths))] = 0.05 + r.Float64()
		}
		for k := r.Intn(4); k > 0; k-- {
			id, _ := spectrum.IDOf(currents[r.Intn(len(currents))])
			if v.ExternalUtil == nil {
				v.ExternalUtil = make([]float64, len(spectrum.Channels(in.Band, spectrum.W20, true)))
			}
			for m := id.Mask(); m != 0; m &= m - 1 {
				v.ExternalUtil[bits.TrailingZeros64(m)] = r.Float64()
			}
		}
		in.APs = append(in.APs, v)
	}
	for i := 0; i < n; i++ {
		for k := r.Intn(4); k > 0; k-- {
			j := r.Intn(n)
			if j == i {
				continue
			}
			in.APs[i].Neighbors = append(in.APs[i].Neighbors, j)
			in.APs[j].Neighbors = append(in.APs[j].Neighbors, i)
		}
	}
	in.Sanitize()
	return in
}

// permuted returns a deep-enough copy of in with its AP slice shuffled and
// every neighbor entry, a position, following its view to where it went.
func permuted(in turboca.Input, r *rand.Rand) turboca.Input {
	order := r.Perm(len(in.APs)) // order[new] = old
	moved := make([]int, len(order))
	for to, from := range order {
		moved[from] = to
	}
	out := in
	out.APs = make([]turboca.APView, len(order))
	for to, from := range order {
		v := in.APs[from]
		v.Neighbors = append([]int(nil), v.Neighbors...)
		for k, j := range v.Neighbors {
			v.Neighbors[k] = moved[j]
		}
		out.APs[to] = v
	}
	return out
}

func plansIdentical(a, b turboca.Plan) bool {
	if len(a) != len(b) {
		return false
	}
	for id, aa := range a {
		if ba, ok := b[id]; !ok || aa != ba {
			return false
		}
	}
	return true
}

// TestOracleDominatesHeuristics is the headline property: across 120
// random ≤8-AP networks the oracle proves optimality and its optimum
// dominates both heuristics' plans (all scores re-evaluated through the
// one public NetP), and re-solving a permuted AP order reproduces the
// plan byte for byte with a bitwise-equal score.
func TestOracleDominatesHeuristics(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randomNetwork(r, 8)
		cfg := turboca.DefaultConfig()
		cin := turboca.CanonicalInput(in)

		res := Solve(cfg, in, Options{})
		if !res.Proven {
			t.Errorf("seed %d: %d-AP solve exhausted %d nodes without proof", seed, len(in.APs), res.Nodes)
			continue
		}
		if res.Bound != res.LogNetP {
			t.Errorf("seed %d: proven solve Bound %f != LogNetP %f", seed, res.Bound, res.LogNetP)
		}
		if got := turboca.NetP(cfg, cin, res.Plan); got != res.LogNetP {
			t.Errorf("seed %d: oracle plan re-evaluates to %v, solver reported %v", seed, got, res.LogNetP)
		}

		nbo := turboca.RunNBO(cfg, cin, rand.New(rand.NewSource(seed*7919+1)), []int{1, 0})
		if sc := turboca.NetP(cfg, cin, nbo.Plan); sc > res.LogNetP+tol {
			t.Errorf("seed %d: NBO %f beats proven oracle optimum %f", seed, sc, res.LogNetP)
		}
		rca := turboca.RunReservedCA(cfg, cin, spectrum.W20)
		if sc := turboca.NetP(cfg, cin, rca.Plan); sc > res.LogNetP+tol {
			t.Errorf("seed %d: ReservedCA %f beats proven oracle optimum %f", seed, sc, res.LogNetP)
		}

		// Determinism pin: a shuffled AP slice is the same problem.
		res2 := Solve(cfg, permuted(in, r), Options{})
		if res2.LogNetP != res.LogNetP || res2.Bound != res.Bound ||
			res2.Proven != res.Proven || res2.Nodes != res.Nodes {
			t.Errorf("seed %d: permuted solve (%v, %v, %v, %d) != original (%v, %v, %v, %d)",
				seed, res2.LogNetP, res2.Bound, res2.Proven, res2.Nodes,
				res.LogNetP, res.Bound, res.Proven, res.Nodes)
		}
		if !plansIdentical(res.Plan, res2.Plan) {
			t.Errorf("seed %d: permuted AP order changed the plan", seed)
		}
	}
}

// TestOracleRespectsPinning checks the solver against inputs with pinned
// APs: a pinned AP with a valid current channel never moves, and NBO —
// which honors pinning the same way — stays within the proven bound.
func TestOracleRespectsPinning(t *testing.T) {
	for seed := int64(500); seed < 530; seed++ {
		r := rand.New(rand.NewSource(seed))
		in := randomNetwork(r, 8)
		for i := range in.APs {
			if r.Float64() < 0.3 {
				in.APs[i].Pinned = true
			}
		}
		cfg := turboca.DefaultConfig()
		cin := turboca.CanonicalInput(in)

		res := Solve(cfg, in, Options{})
		for i := range cin.APs {
			v := &cin.APs[i]
			if !v.Pinned || !v.Current.Width.Valid() {
				continue
			}
			if a, ok := res.Plan[v.ID]; ok && a.Channel != v.Current {
				t.Errorf("seed %d: pinned AP %d moved %v -> %v", seed, v.ID, v.Current, a.Channel)
			}
		}
		if !res.Proven {
			continue
		}
		nbo := turboca.RunNBO(cfg, cin, rand.New(rand.NewSource(seed)), []int{1, 0})
		if sc := turboca.NetP(cfg, cin, nbo.Plan); sc > res.Bound+tol {
			t.Errorf("seed %d: NBO %f outside proven bound %f on pinned input", seed, sc, res.Bound)
		}
	}
}

// TestOracleBudgetExhaustion pins the budget contract: a starved solve
// returns the warm-start incumbent with Proven=false and a bound that
// (a) is no smaller than the incumbent and (b) still certifies the true
// optimum found by an unbudgeted solve on the same input.
func TestOracleBudgetExhaustion(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg, in := Scenario(Clique, 8, r)

		full := Solve(cfg, in, Options{})
		if !full.Proven {
			t.Fatalf("seed %d: reference solve exhausted its budget", seed)
		}
		for _, maxNodes := range []int{1, 17, 400} {
			res := Solve(cfg, in, Options{MaxNodes: maxNodes})
			if res.Proven {
				// A tiny budget can still suffice on a tiny tree; then the
				// result must simply be the reference optimum.
				if res.LogNetP != full.LogNetP {
					t.Errorf("seed %d budget %d: proven %f != reference %f",
						seed, maxNodes, res.LogNetP, full.LogNetP)
				}
				continue
			}
			if res.Nodes > maxNodes {
				t.Errorf("seed %d budget %d: expanded %d nodes", seed, maxNodes, res.Nodes)
			}
			if res.Bound < res.LogNetP-tol {
				t.Errorf("seed %d budget %d: bound %f below incumbent %f",
					seed, maxNodes, res.Bound, res.LogNetP)
			}
			if res.Bound < full.LogNetP-tol {
				t.Errorf("seed %d budget %d: bound %f fails to certify true optimum %f",
					seed, maxNodes, res.Bound, full.LogNetP)
			}
			if res.LogNetP > full.LogNetP+tol {
				t.Errorf("seed %d budget %d: incumbent %f beats proven optimum %f",
					seed, maxNodes, res.LogNetP, full.LogNetP)
			}
			if got := turboca.NetP(cfg, turboca.CanonicalInput(in), res.Plan); got != res.LogNetP {
				t.Errorf("seed %d budget %d: incumbent re-evaluates to %v, solver reported %v",
					seed, maxNodes, got, res.LogNetP)
			}
		}
	}
}

// TestOracleTimeout covers the wall-clock budget: an already-expired
// deadline stops the search at once, leaving the baseline incumbent and
// an honest bound.
func TestOracleTimeout(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	cfg, in := Scenario(Clique, 10, r)
	res := Solve(cfg, in, Options{Timeout: time.Nanosecond})
	if res.Proven {
		t.Fatal("expired deadline still proved optimality")
	}
	if res.Bound < res.LogNetP-tol {
		t.Errorf("bound %f below incumbent %f", res.Bound, res.LogNetP)
	}
	full := Solve(cfg, in, Options{MaxNodes: -1})
	if full.Proven && res.Bound < full.LogNetP-tol {
		t.Errorf("timeout bound %f fails to certify optimum %f", res.Bound, full.LogNetP)
	}
}

// TestOracleEmptyAndTiny covers degenerate inputs.
func TestOracleEmptyAndTiny(t *testing.T) {
	cfg := turboca.DefaultConfig()
	res := Solve(cfg, turboca.Input{Band: spectrum.Band5}, Options{})
	if !res.Proven || res.LogNetP != 0 || len(res.Plan) != 0 {
		t.Errorf("empty input: got (%v, %v, %d assignments)", res.Proven, res.LogNetP, len(res.Plan))
	}

	in := turboca.Input{Band: spectrum.Band5, MaxWidth: spectrum.W40, APs: []turboca.APView{{
		ID: 7, MaxWidth: spectrum.W40, HasClients: true, Load: 1,
	}}}
	in.Sanitize()
	res = Solve(cfg, in, Options{})
	if !res.Proven {
		t.Fatal("single-AP solve not proven")
	}
	if _, ok := res.Plan[7]; !ok {
		t.Error("greenfield single AP left unassigned by the optimum")
	}
}

// TestGap exercises the Gap API across every scenario family: NBO must
// sit within the proven bound, the static baseline within the oracle, and
// the two gap fields must be consistent.
func TestGap(t *testing.T) {
	for _, kind := range Kinds {
		for seed := int64(0); seed < 4; seed++ {
			cfg, in := Scenario(kind, 6, rand.New(rand.NewSource(seed)))
			g := Gap(cfg, in, GapOptions{Seed: seed})
			if !g.Proven {
				t.Errorf("%s seed %d: 6-AP gap run not proven (%d nodes)", kind, seed, g.Nodes)
				continue
			}
			if g.NBOLogNetP > g.Bound+tol {
				t.Errorf("%s seed %d: NBO %f outside proven bound %f", kind, seed, g.NBOLogNetP, g.Bound)
			}
			if g.ReservedLogNetP > g.OracleLogNetP+tol {
				t.Errorf("%s seed %d: ReservedCA %f beats oracle %f", kind, seed, g.ReservedLogNetP, g.OracleLogNetP)
			}
			if g.Gap != g.OracleLogNetP-g.NBOLogNetP || g.BoundGap != g.Bound-g.NBOLogNetP {
				t.Errorf("%s seed %d: inconsistent gap fields", kind, seed)
			}
			if g.Gap < -tol {
				t.Errorf("%s seed %d: negative gap %f against proven optimum", kind, seed, g.Gap)
			}
		}
	}
}

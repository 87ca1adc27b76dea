package turboca

import (
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/spectrum"
)

// propertySeeds is the number of random networks the invariant suite
// checks. Each seed builds a fresh topology, runs the planner at three
// worker counts, and asserts the full contract below.
const propertySeeds = 120

// randomInput generates a plausible planning problem from one RNG stream:
// random size, band, topology, loads, width mixes, external interference,
// pinned/stale/clientless APs, and a mix of assigned, never-assigned, and
// even DFS current channels (legal residue of a regulatory change even
// when AllowDFS is false). Sanitize is applied, as the service always
// does before planning.
func randomInput(r *rand.Rand) Input {
	in := Input{Band: spectrum.Band5, AllowDFS: r.Intn(2) == 0}
	if r.Intn(8) == 0 {
		in.Band = spectrum.Band2G4
	}
	widths := []spectrum.Width{spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160}
	in.MaxWidth = widths[r.Intn(len(widths))]
	if in.Band == spectrum.Band2G4 {
		in.MaxWidth = spectrum.W20
	}
	currents := spectrum.AllChannels(in.Band, in.MaxWidth, true)

	n := 4 + r.Intn(25)
	for i := 0; i < n; i++ {
		v := APView{
			ID:          i,
			MaxWidth:    widths[r.Intn(len(widths))],
			HasClients:  r.Float64() < 0.7,
			CSAFraction: r.Float64(),
			Load:        r.Float64() * 8,
			Utilization: r.Float64(),
			Stale:       r.Float64() < 0.1,
			Pinned:      r.Float64() < 0.15,
		}
		if in.Band == spectrum.Band2G4 {
			v.MaxWidth = spectrum.W20
		}
		if r.Float64() < 0.85 {
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
	// Symmetric random edges, ~3 per AP.
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

// incumbentPlan converts the input's on-air channels into a Plan, the
// baseline RunNBO's accept-if-better loop scores against.
func incumbentPlan(in Input) Plan {
	p := Plan{}
	for i := range in.APs {
		if in.APs[i].Current.Width.Valid() {
			p[in.APs[i].ID] = Assignment{Channel: in.APs[i].Current}
		}
	}
	return p
}

// plansIdentical reports byte-identity of two plans including fallbacks.
func plansIdentical(a, b Plan) bool {
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

// checkLegality asserts the channel-legality contract for one accepted
// plan: an AP that moved (or got its first assignment) landed on a US
// channel legal for the band, no wider than both the network cap and the
// AP's own capability, DFS only when the network admits it, never DFS
// when the AP has clients; staying put is always legal. DFS assignments
// carry a non-DFS fallback.
func checkLegality(t *testing.T, in Input, plan Plan) {
	t.Helper()
	netMax := in.MaxWidth
	if netMax == 0 {
		netMax = spectrum.W160
	}
	legal := map[spectrum.Channel]bool{}
	for _, c := range spectrum.AllChannels(in.Band, netMax, in.AllowDFS) {
		legal[c] = true
	}
	for i := range in.APs {
		v := &in.APs[i]
		a, ok := plan[v.ID]
		if !ok {
			continue
		}
		moved := !v.Current.Width.Valid() || a.Channel != v.Current
		if moved {
			if !legal[a.Channel] {
				t.Errorf("AP %d moved to %v: not a legal candidate (band %v, cap %v, DFS %v)",
					v.ID, a.Channel, in.Band, netMax, in.AllowDFS)
			}
			if a.Channel.Width > v.MaxWidth {
				t.Errorf("AP %d moved to %v wider than its capability %v", v.ID, a.Channel, v.MaxWidth)
			}
			if a.Channel.DFS && v.HasClients {
				t.Errorf("AP %d has clients but was moved onto DFS channel %v", v.ID, a.Channel)
			}
		}
		if a.Channel.DFS {
			if a.Fallback == (spectrum.Channel{}) {
				t.Errorf("AP %d on DFS channel %v without a fallback", v.ID, a.Channel)
			} else if a.Fallback.DFS {
				t.Errorf("AP %d fallback %v is itself DFS", v.ID, a.Fallback)
			}
		}
	}
}

// deterministicObs extracts the scheduling-independent slice of a planner
// metrics snapshot: counters, the NetP gauge, and the NetP round
// histogram. Timing histograms (_us) are host-dependent and excluded.
type deterministicObs struct {
	rounds, accepted, rejected, switches, passes int64
	netpBest                                     int64
	netpRound                                    obs.HistSnapshot
}

func obsSlice(reg *obs.Registry) deterministicObs {
	s := reg.Snapshot()
	return deterministicObs{
		rounds:    s.Counters["turboca.nbo_rounds"],
		accepted:  s.Counters["turboca.rounds_accepted"],
		rejected:  s.Counters["turboca.rounds_rejected"],
		switches:  s.Counters["turboca.switches_planned"],
		passes:    s.Counters["turboca.passes"],
		netpBest:  s.Gauges["turboca.netp_best_m"],
		netpRound: s.Histograms["turboca.netp_round_m"],
	}
}

func obsEqual(a, b deterministicObs) bool {
	return a.rounds == b.rounds && a.accepted == b.accepted && a.rejected == b.rejected &&
		a.switches == b.switches && a.passes == b.passes && a.netpBest == b.netpBest &&
		a.netpRound.Count == b.netpRound.Count && a.netpRound.Min == b.netpRound.Min &&
		a.netpRound.Max == b.netpRound.Max && a.netpRound.Mean == b.netpRound.Mean &&
		a.netpRound.P50 == b.netpRound.P50 && a.netpRound.P95 == b.netpRound.P95 &&
		a.netpRound.P99 == b.netpRound.P99
}

// TestPlanInvariants is the property-based contract suite: across many
// random networks it asserts, for every accepted plan,
//
//  1. channel legality (see checkLegality),
//  2. pinned APs never move,
//  3. the accepted NetP is never worse than the incumbent's, with
//     Improved reporting strict improvement exactly,
//  4. a full-coverage plan re-evaluates (via NetP) to exactly the
//     LogNetP the planner reported,
//  5. results — plan, score, counters — are byte-identical across
//     worker counts, and
//  6. the deterministic slice of the obs snapshot (counters, NetP
//     histogram quantiles) is identical across all those shapes.
func TestPlanInvariants(t *testing.T) {
	for seed := int64(0); seed < propertySeeds; seed++ {
		in := randomInput(rand.New(rand.NewSource(seed)))
		base := NetP(DefaultConfig(), in, incumbentPlan(in))

		var ref Result
		var refObs deterministicObs
		for wi, workers := range []int{1, 3, 8} {
			reg := obs.NewRegistry()
			cfg := DefaultConfig()
			cfg.Runs = 4
			cfg.Workers = workers
			cfg.Obs = reg.Scope("turboca")
			res := RunNBO(cfg, in, rand.New(rand.NewSource(seed*7919+1)), []int{1, 0})
			snap := obsSlice(reg)
			// A missed metric key reads as zero and would let invariant 6
			// pass vacuously.
			if want := int64(res.Rounds); want == 0 ||
				snap.rounds != want || snap.netpRound.Count != want || snap.passes != 1 {
				t.Fatalf("seed %d: workers=%d: %d rounds, metrics saw %d (histogram %d) in %d passes",
					seed, workers, res.Rounds, snap.rounds, snap.netpRound.Count, snap.passes)
			}

			if wi == 0 {
				ref, refObs = res, snap

				checkLegality(t, in, res.Plan)

				for i := range in.APs {
					v := &in.APs[i]
					if !v.Pinned || !v.Current.Width.Valid() {
						continue
					}
					a, ok := res.Plan[v.ID]
					if res.Improved && !ok {
						t.Errorf("seed %d: pinned AP %d missing from accepted plan", seed, v.ID)
						continue
					}
					if ok && a.Channel != v.Current {
						t.Errorf("seed %d: pinned AP %d moved %v -> %v", seed, v.ID, v.Current, a.Channel)
					}
				}

				if res.LogNetP < base {
					t.Errorf("seed %d: accepted NetP %f worse than incumbent %f", seed, res.LogNetP, base)
				}
				if res.Improved != (res.LogNetP > base) {
					t.Errorf("seed %d: Improved=%v inconsistent with NetP %f vs incumbent %f",
						seed, res.Improved, res.LogNetP, base)
				}
				if res.Improved && len(res.Plan) == len(in.APs) {
					if got := NetP(cfg, in, res.Plan); got != res.LogNetP {
						t.Errorf("seed %d: full plan re-evaluates to %f, planner reported %f",
							seed, got, res.LogNetP)
					}
				}
				continue
			}

			if res.LogNetP != ref.LogNetP || res.Rounds != ref.Rounds ||
				res.Switches != ref.Switches || res.Improved != ref.Improved {
				t.Errorf("seed %d: workers=%d result (%f, %d, %d, %v) != reference (%f, %d, %d, %v)",
					seed, workers, res.LogNetP, res.Rounds, res.Switches, res.Improved,
					ref.LogNetP, ref.Rounds, ref.Switches, ref.Improved)
			}
			if !plansIdentical(res.Plan, ref.Plan) {
				t.Errorf("seed %d: workers=%d plan differs from reference", seed, workers)
			}
			if !obsEqual(snap, refObs) {
				t.Errorf("seed %d: workers=%d deterministic metrics differ from reference:\n%+v\nvs\n%+v",
					seed, workers, snap, refObs)
			}
		}
	}
}

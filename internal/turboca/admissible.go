package turboca

import (
	"sort"

	"repro/internal/spectrum"
)

// This file is the one place that decides which channels an AP may take.
// The hard constraints (§4.5.2 and the network's own limits):
//
//   - the band's plan: Input.MaxWidth and Input.AllowDFS;
//   - the AP's width capability, APView.MaxWidth — a cap below 20 MHz
//     (zero, on input that skipped Sanitize) admits nothing;
//   - no DFS channel for an AP with associated clients, who would sit
//     through the CAC;
//   - no channel touching a 20 MHz sub-channel under an active radar
//     non-occupancy period (Input.Blocked).
//
// ACC, the DFS fallback, ReservedCA and the Evaluator's enumeration all
// take their candidates from here, so the exhaustive search is a superset
// of the greedy planners by construction. Behind the planner the backend
// has one gate (installChannel refuses a quarantined assignment) and one
// audit (checkNOP).

// admissibleSets holds the constraint sets of one planning problem,
// resolved once in newPlanner. Lists are in spectrum.AllChannels order
// (narrow-to-wide, ascending number), so an AP's (HasClients, MaxWidth)
// class is a prefix of a list and every arg-max over one breaks ties the
// same way.
type admissibleSets struct {
	quarantined uint64 // Input.Blocked
	// open[0] is every unquarantined channel of the band's plan; open[1]
	// leaves out DFS channels, for APs with clients.
	open [2][]spectrum.ID
	// lastResort ends the ladder: the narrowest unquarantined non-DFS
	// channels of the plan, or, when every non-DFS channel is quarantined
	// — which radar, striking DFS channels only, cannot do — the narrowest
	// non-DFS channels, so the planner still degrades to a deterministic
	// answer.
	lastResort []spectrum.ID
}

func newAdmissibleSets(in Input) admissibleSets {
	a := admissibleSets{quarantined: in.Blocked}
	maxW := in.MaxWidth
	if maxW == 0 {
		maxW = spectrum.W160
	}
	var closed []spectrum.ID // quarantined non-DFS, for lastResort only
	for _, c := range spectrum.AllChannels(in.Band, maxW, in.AllowDFS) {
		id, _ := spectrum.IDOf(c)
		switch {
		case !a.struck(id):
			a.open[0] = append(a.open[0], id)
			if !c.DFS {
				a.open[1] = append(a.open[1], id)
			}
		case !c.DFS:
			closed = append(closed, id)
		}
	}
	if a.lastResort = narrowest(a.open[1]); len(a.lastResort) == 0 {
		a.lastResort = narrowest(closed)
	}
	return a
}

// struck reports whether c touches a quarantined sub-channel.
func (a *admissibleSets) struck(c spectrum.ID) bool { return c.Mask()&a.quarantined != 0 }

// within returns the members of cs, a list in AllChannels order, that are
// no wider than maxW: a prefix.
func within(cs []spectrum.ID, maxW spectrum.Width) []spectrum.ID {
	n := sort.Search(len(cs), func(i int) bool { return cs[i].Channel().Width > maxW })
	return cs[:n:n]
}

// narrowest returns the members of cs that share its first member's width.
func narrowest(cs []spectrum.ID) []spectrum.ID {
	if len(cs) == 0 {
		return nil
	}
	return within(cs, cs[0].Channel().Width)
}

// upTo returns the unquarantined channels no wider than maxW, DFS-free
// when hasClients.
func (a *admissibleSets) upTo(hasClients bool, maxW spectrum.Width) []spectrum.ID {
	if hasClients {
		return within(a.open[1], maxW)
	}
	return within(a.open[0], maxW)
}

// exactly returns the unquarantined channels of width w, DFS-free when
// hasClients — ReservedCA's fixed-width candidates.
func (a *admissibleSets) exactly(hasClients bool, w spectrum.Width) []spectrum.ID {
	cs := a.upTo(hasClients, w)
	return cs[len(within(cs, w-1)):]
}

// ladder is the whole degradation order for one AP whose incumbent
// channel is cur (spectrum.None for none):
//
//  1. the channels within its cap and constraints;
//  2. nothing there: cur alone, if cur is itself admissible — within the
//     cap, not DFS under clients, not quarantined; keeping a channel that
//     breaks a hard constraint would be worse than an out-of-cap move to
//     a safe one;
//  3. otherwise lastResort, cap ignored.
func (a *admissibleSets) ladder(v *APView, cur spectrum.ID) []spectrum.ID {
	if cs := a.upTo(v.HasClients, v.MaxWidth); len(cs) > 0 {
		return cs
	}
	if cur != spectrum.None {
		if ch := cur.Channel(); ch.Width <= v.MaxWidth && !(ch.DFS && v.HasClients) && !a.struck(cur) {
			return []spectrum.ID{cur}
		}
	}
	return a.lastResort
}

// reachable lists every state a planner can leave v in, given its on-air
// channel: a pinned AP stays where it is; any other takes what the ladder
// offers an AP with no incumbent, or keeps its on-air channel while that
// is not quarantined, or — never assigned, or just struck by radar — has
// no channel at all (spectrum.None, listed last).
func (a *admissibleSets) reachable(v *APView, onAir spectrum.ID) []spectrum.ID {
	if v.Pinned && onAir != spectrum.None {
		return []spectrum.ID{onAir}
	}
	cs := a.ladder(v, spectrum.None)
	out := append(make([]spectrum.ID, 0, len(cs)+1), cs...)
	if onAir == spectrum.None || a.struck(onAir) {
		return append(out, spectrum.None)
	}
	for _, c := range cs {
		if c == onAir {
			return out
		}
	}
	return append(out, onAir)
}

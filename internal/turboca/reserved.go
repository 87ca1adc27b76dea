package turboca

import (
	"math"

	"repro/internal/spectrum"
)

// RunReservedCA implements the prior-generation channel assignment the
// paper compares against (§4.6.1): iterate the APs in a fixed sequence
// and, for each, pick the channel that maximizes that AP's *isolated*
// performance given everyone else's current channels — no network-wide
// objective, no look-ahead, fixed channel width, re-evaluated every 5
// hours by its service.
func RunReservedCA(cfg Config, in Input, fixedWidth spectrum.Width) Result {
	p := newPlanner(cfg, in)
	if fixedWidth == 0 {
		fixedWidth = spectrum.W20
	}

	for i := range p.views {
		bestScore := math.Inf(-1)
		best := spectrum.None
		for _, c := range p.adm.exactly(p.views[i].HasClients, fixedWidth) {
			// Isolated objective: only this AP's NodeP, evaluated against
			// the working plan (earlier APs in the sequence keep their
			// new channels; later ones their current).
			p.assign[i] = c
			score := p.logNodeP(i, c)
			p.assign[i] = spectrum.None
			if score > bestScore {
				bestScore = score
				best = c
			}
		}
		if best == spectrum.None {
			best = p.current[i] // no candidate at the fixed width
		}
		p.assign[i] = best
	}

	res := Result{Plan: p.snapshotPlan(), LogNetP: p.logNetP(), Improved: true}
	res.Switches = p.switches(res.Plan)
	return res
}

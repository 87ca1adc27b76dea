package fleetd

import (
	"fmt"
	"math/rand"

	"repro/internal/fleet"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// Scenario synthesis: a fleet.Network (the Section 3 population model —
// AP placement, standards, configured widths, channel assignments,
// client-density and utilization draws) becomes a topo.Scenario (the
// planning environment the backend polls and TurboCA plans over). The
// conversion is a pure function of (network, seed): fleetd derives every
// stochastic detail — client capability mixes, usage weights, interferer
// duty cycles — from its own deterministic stream, so the same fleet and
// controller seed always produce byte-identical scenarios regardless of
// registration order or worker count.

const (
	// maxModeledClients caps the clients drawn per AP. The paper's planner
	// only consumes the capability/usage *mixture*, which stabilizes well
	// below the observed 338-client maximum; capping keeps a million-AP
	// fleet's build time bounded.
	maxModeledClients = 48
	// maxModeledInterferers caps the foreign-AP interferer set per
	// network: external utilization queries scan interferers linearly,
	// and the nearest few dozen dominate the airtime loss.
	maxModeledInterferers = 64
)

// netKey is the network's row key in checkpoints and its name in
// reports.
func netKey(id int) string { return fmt.Sprintf("net%05d", id) }

// buildScenario converts one fleet network into a planning scenario.
func buildScenario(n *fleet.Network, seed int64) *topo.Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := topo.NewScenario(netKey(n.ID), seed^0x5ce9a510)
	caps := fleet.Cohort2017
	// One AP's client draw: the backend reads only its mix, so per-network
	// resident memory does not scale with client count.
	var clients []topo.ClientInfo
	for i, fap := range n.APs {
		ap := &topo.AP{
			ID:       i,
			Name:     fmt.Sprintf("%s-ap%03d", sc.Name, i),
			Pos:      topo.Point{X: fap.X, Y: fap.Y},
			MaxWidth: radioWidth(fap),
			NSS:      max(fap.Chains, 1),
			// The fleet generator's assignment is the incumbent plan the
			// controller must improve on.
			Channel:   fap.Channel5,
			Channel24: fap.Channel24,
			// Demand scales with the AP's observed 5 GHz utilization and
			// client density: a busy, dense AP offers more load.
			BaseDemandMbps: 6 + 90*fap.Util5 + 1.2*float64(min(fap.MaxClients, 50)) + 8*rng.Float64(),
		}
		nClients := min(fap.MaxClients, maxModeledClients)
		clients = clients[:0]
		for j := 0; j < nClients; j++ {
			c := caps.Sample(rng)
			w := c.MaxWidth
			if !c.VHT && w > spectrum.W40 {
				w = spectrum.W40
			}
			clients = append(clients, topo.ClientInfo{
				MaxWidth:    w,
				NSS:         c.NSS,
				SupportsCSA: rng.Float64() < 0.7,
				UsageWeight: 0.2 + rng.ExpFloat64(),
			})
		}
		ap.Mix = topo.MixOf(clients)
		sc.APs = append(sc.APs, ap)
	}
	for i, fap := range n.Foreign {
		if i >= maxModeledInterferers {
			break
		}
		pos := topo.Point{X: fap.X, Y: fap.Y}
		duty := 0.05 + 0.35*rng.Float64()
		rangeM := 25 + 25*rng.Float64()
		sc.Interferers = append(sc.Interferers, &topo.Interferer{
			Pos:    pos,
			Band:   spectrum.Band2G4,
			Chan20: fap.Channel24.Number,
			Width:  spectrum.W20,
			Duty:   duty,
			RangeM: rangeM,
		})
		if fap.Channel5.Width != 0 {
			sc.Interferers = append(sc.Interferers, &topo.Interferer{
				Pos:    pos,
				Band:   spectrum.Band5,
				Chan20: fap.Channel5.Primary20(),
				Width:  fap.Channel5.Width,
				Duty:   duty * 0.6, // 5 GHz foreign gear is lighter-duty
				RangeM: rangeM,
			})
		}
	}
	return sc
}

// radioWidth maps the AP's generation to its radio capability.
func radioWidth(ap *fleet.AP) spectrum.Width {
	switch ap.Standard {
	case "ac":
		return spectrum.W80
	case "n":
		return spectrum.W40
	default:
		return spectrum.W20
	}
}

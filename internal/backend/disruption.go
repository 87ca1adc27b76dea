package backend

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// Channel-switch disruption accounting (§4.3.1): a CSA-capable client
// follows the AP to the target channel with negligible outage, but a
// client that misses (or does not implement) the announcement must detect
// the loss, rescan, and re-associate — about 5 s on laptops and 8 s on
// mobile devices in the paper's measurements. The backend charges every
// switch with the expected client outage so the stability cost of a
// channel plan is a first-class metric (DisruptionSeconds), and the
// switch-penalty ablation can show what it buys.

// Outage durations measured in §4.3.1.
const (
	laptopRescan = 5 * sim.Second
	mobileRescan = 8 * sim.Second
)

// disruptionSeconds estimates the total client outage caused by switching
// ap's channel now.
func (b *Backend) disruptionSeconds(ap *topo.AP, now sim.Time) float64 {
	m := &ap.Mix
	if m.Count == 0 {
		return 0
	}
	// Clients present only in proportion to the current load.
	activeFrac := 0.0
	if ap.BaseDemandMbps > 0 {
		activeFrac = b.Scenario.DemandAt(ap, now) / ap.BaseDemandMbps
	}
	// Half the non-CSA population behaves like mobile devices (the mix's
	// device-class split).
	total := float64(m.NonCSAMobile)*mobileRescan.Seconds() + float64(m.NonCSALaptop)*laptopRescan.Seconds()
	// CSA-capable clients still occasionally miss the beacons (§4.3.1:
	// "beacons might be missed even by clients that do support CSAs").
	for i := 0; i < m.CSACount; i++ {
		if b.rng.Float64() < 0.05 {
			total += laptopRescan.Seconds()
		}
	}
	return total * activeFrac
}

// chargeSwitch adds the disruption of one AP channel change to the
// total. 2.4 GHz switches hit the CSA-less population hardest, which is
// exactly why the planner's 2.4 GHz penalty is "very high" (§4.4.1); the
// same model applies on both bands.
func (b *Backend) chargeSwitch(ap *topo.AP, now sim.Time) {
	b.disruptionTotal += b.disruptionSeconds(ap, now)
}

// DisruptionSeconds returns the cumulative client outage charged to
// channel switches.
func (b *Backend) DisruptionSeconds() float64 { return b.disruptionTotal }

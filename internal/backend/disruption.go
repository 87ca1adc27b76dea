package backend

import (
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// Channel-switch disruption accounting (§4.3.1): a CSA-capable client
// follows the AP to the target channel with negligible outage, but a
// client that misses (or does not implement) the announcement must detect
// the loss, rescan, and re-associate — about 5 s on laptops and 8 s on
// mobile devices in the paper's measurements. The backend charges every
// switch with the expected client outage so the stability cost of a
// channel plan is a first-class, queryable metric ("disruption" table),
// and the switch-penalty ablation can show what it buys.

// Outage durations measured in §4.3.1.
const (
	laptopRescan = 5 * sim.Second
	mobileRescan = 8 * sim.Second
)

// disruptionSeconds estimates the total client outage caused by switching
// ap's channel now.
func (b *Backend) disruptionSeconds(ap *topo.AP, now sim.Time) float64 {
	if ap.ClientCount() == 0 {
		return 0
	}
	// Device-class counts come from whichever client representation the
	// AP carries. The aggregate preserves the per-client walk exactly:
	// the same mobile/laptop partition, and — because every rescan term
	// is an integer number of seconds, so float addition is associative
	// here — the same total; the rng below is drawn exactly once per
	// CSA-capable client either way, keeping the stream bit-identical.
	csa, mobile, laptop := 0, 0, 0
	if agg := ap.ClientAgg; agg != nil {
		csa, mobile, laptop = agg.CSACount, agg.NonCSAMobile, agg.NonCSALaptop
	} else {
		for i, c := range ap.Clients {
			switch {
			case c.SupportsCSA:
				csa++
			case i%2 == 0:
				// Half the population behaves like mobile devices.
				mobile++
			default:
				laptop++
			}
		}
	}
	// Clients present only in proportion to the current load.
	activeFrac := 0.0
	if ap.BaseDemandMbps > 0 {
		activeFrac = b.Scenario.DemandAt(ap, now) / ap.BaseDemandMbps
	}
	total := float64(mobile)*mobileRescan.Seconds() + float64(laptop)*laptopRescan.Seconds()
	// CSA-capable clients still occasionally miss the beacons (§4.3.1:
	// "beacons might be missed even by clients that do support CSAs").
	for i := 0; i < csa; i++ {
		if b.rng.Float64() < 0.05 {
			total += laptopRescan.Seconds()
		}
	}
	return total * activeFrac
}

// chargeSwitch records the disruption for one AP channel change. 2.4 GHz
// switches hit the CSA-less population hardest, which is exactly why the
// planner's 2.4 GHz penalty is "very high" (§4.4.1); the same model applies
// on both bands.
func (b *Backend) chargeSwitch(ap *topo.AP, band spectrum.Band, now sim.Time) {
	secs := b.disruptionSeconds(ap, now)
	b.disruptionTotal += secs
	if !b.Opt.DisableTelemetryHistory {
		b.DB.Table("disruption").Insert(ap.Name, now, map[string]float64{
			"seconds": secs,
			"band":    float64(band),
		})
	}
}

// DisruptionSeconds returns the cumulative client outage charged to
// channel switches.
func (b *Backend) DisruptionSeconds() float64 { return b.disruptionTotal }

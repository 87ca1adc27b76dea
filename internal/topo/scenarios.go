package topo

import (
	"fmt"
	"math/rand"

	"repro/internal/phy"
	"repro/internal/spectrum"
)

// ScenarioOptions parameterises a generated deployment.
type ScenarioOptions struct {
	Seed int64
	// APCount is the number of access points.
	APCount int
	// AreaW/AreaH bound the site in meters.
	AreaW, AreaH float64
	// Grid places APs on a jittered grid (true) or uniformly at random.
	Grid bool
	// MeanClients is the average associated-client count per AP.
	MeanClients int
	// DemandMbps is the mean per-AP peak demand.
	DemandMbps float64
	// Interferers is the number of external RF sources.
	Interferers int
	Load        LoadCurve
	UplinkMbps  float64
	Name        string
}

// capabilityMix draws a client capability profile matching the 2017 field
// distribution of Fig 1: ~46% 802.11ac (80 MHz-capable), ~40% of clients
// 2.4 GHz-only (not modeled on the 5 GHz plan), 37% 2-stream.
func capabilityMix(rng *rand.Rand) ClientInfo {
	ci := ClientInfo{NSS: 1, MaxWidth: spectrum.W20, SupportsCSA: rng.Float64() < 0.7}
	r := rng.Float64()
	switch {
	case r < 0.46: // 802.11ac
		ci.MaxWidth = spectrum.W80
	case r < 0.80: // 11n 40 MHz-capable
		ci.MaxWidth = spectrum.W40
	}
	if rng.Float64() < 0.37 {
		ci.NSS = 2
	}
	if rng.Float64() < 0.10 {
		ci.NSS = 3
	}
	ci.UsageWeight = 0.2 + rng.ExpFloat64()
	return ci
}

// Generate builds a scenario from options.
func Generate(opt ScenarioOptions) *Scenario {
	rng := rand.New(rand.NewSource(opt.Seed))
	if opt.APCount <= 0 {
		opt.APCount = 30
	}
	if opt.AreaW == 0 {
		opt.AreaW = 120
	}
	if opt.AreaH == 0 {
		opt.AreaH = 80
	}
	if opt.MeanClients <= 0 {
		opt.MeanClients = 8
	}
	if opt.DemandMbps == 0 {
		opt.DemandMbps = 40
	}
	if opt.Load == nil {
		opt.Load = OfficeLoad
	}

	s := &Scenario{
		Name:       opt.Name,
		Prop:       phy.DefaultIndoor(),
		CSRangeM:   45,
		Load:       opt.Load,
		UplinkMbps: opt.UplinkMbps,
		rng:        rng,
	}

	nonDFS80 := spectrum.Channels(spectrum.Band5, spectrum.W80, false)
	ch24 := spectrum.Channels(spectrum.Band2G4, spectrum.W20, true)

	for i := 0; i < opt.APCount; i++ {
		pos := placeAP(rng, opt, i)
		ap := &AP{
			ID:       i,
			Name:     fmt.Sprintf("%s-ap%03d", opt.Name, i),
			Pos:      pos,
			MaxWidth: spectrum.W80,
			NSS:      3,
			// Initial assignment: everyone on the same default channel,
			// the out-of-the-box state a planner must fix.
			Channel:        nonDFS80[0],
			Channel24:      ch24[i%len(ch24)],
			BaseDemandMbps: opt.DemandMbps * (0.5 + rng.Float64()),
		}
		nClients := 1 + rng.Intn(2*opt.MeanClients)
		for j := 0; j < nClients; j++ {
			ap.Clients = append(ap.Clients, capabilityMix(rng))
		}
		s.APs = append(s.APs, ap)
	}

	for i := 0; i < opt.Interferers; i++ {
		band := spectrum.Band5
		w := spectrum.W20
		var chans []spectrum.Channel
		if rng.Float64() < 0.4 {
			band = spectrum.Band2G4
			chans = spectrum.Channels(band, spectrum.W20, true)
		} else {
			if rng.Float64() < 0.5 {
				w = spectrum.W40
			}
			chans = spectrum.Channels(band, w, true)
		}
		c := chans[rng.Intn(len(chans))]
		s.Interferers = append(s.Interferers, &Interferer{
			Pos:    Point{X: rng.Float64() * opt.AreaW, Y: rng.Float64() * opt.AreaH},
			Band:   band,
			Chan20: c.Primary20(),
			Width:  w,
			Duty:   0.1 + rng.Float64()*0.5,
			RangeM: 25 + rng.Float64()*25,
		})
	}
	return s
}

func placeAP(rng *rand.Rand, opt ScenarioOptions, i int) Point {
	if !opt.Grid {
		return Point{X: rng.Float64() * opt.AreaW, Y: rng.Float64() * opt.AreaH}
	}
	// Jittered grid sized to fit APCount.
	cols := 1
	for cols*cols < opt.APCount {
		cols++
	}
	rows := (opt.APCount + cols - 1) / cols
	x := (float64(i%cols) + 0.5) / float64(cols) * opt.AreaW
	y := (float64(i/cols) + 0.5) / float64(rows) * opt.AreaH
	x += (rng.Float64() - 0.5) * opt.AreaW / float64(cols) * 0.4
	y += (rng.Float64() - 0.5) * opt.AreaH / float64(rows) * 0.4
	return Point{X: x, Y: y}
}

// School builds a K-12 campus whose load follows class periods (§4.3.1:
// "In a school, the network trends are likely to correlate with class
// schedules and enrollment").
func School(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "school",
		APCount: 120, AreaW: 300, AreaH: 200, Grid: true,
		MeanClients: 18, DemandMbps: 45,
		Interferers: 10, Load: SchoolLoad,
		UplinkMbps: 900,
	})
}

// Hotel builds a hospitality deployment: corridor-strung APs, evening-
// heavy load.
func Hotel(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "hotel",
		APCount: 150, AreaW: 500, AreaH: 120, Grid: true,
		MeanClients: 5, DemandMbps: 35,
		Interferers: 30, Load: HotelLoad,
		UplinkMbps: 600,
	})
}

// Office builds a Meraki-HQ-like dense single-floor office: ~33 APs,
// 300-400 clients, high 2.4 GHz utilization (§3.2.2).
func Office(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "office",
		APCount: 33, AreaW: 120, AreaH: 60, Grid: true,
		MeanClients: 11, DemandMbps: 60,
		Interferers: 6, Load: OfficeLoad,
		UplinkMbps: 2000,
	})
}

// Campus builds a UNet-like deployment: ~600 APs across a larger area,
// uplink-capped (Table 2 shows UNet usage limited by the WAN).
func Campus(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "campus",
		APCount: 600, AreaW: 900, AreaH: 600, Grid: true,
		MeanClients: 14, DemandMbps: 30,
		Interferers: 40, Load: CampusLoad,
		UplinkMbps: 1400,
	})
}

// MDU builds a multi-dwelling-unit (apartment tower) deployment. The
// defining property is density: ~90 m² per AP, roughly 10× the Campus
// deployment's ~900 m²/AP — every flat runs its own AP, walls barely
// attenuate across a floor plate, and the interferer count is dominated
// by neighbors' consumer gear. The dense-scenario experiment uses it to
// show where fixed-width ReservedCA collapses: at this density almost
// no AP can hold 80 MHz cleanly, and the win comes from per-AP width
// adaptation rather than bonding headroom.
func MDU(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "mdu",
		APCount: 200, AreaW: 150, AreaH: 120, Grid: true,
		MeanClients: 6, DemandMbps: 55,
		Interferers: 60, Load: HotelLoad,
		UplinkMbps: 500,
	})
}

// Stadium builds a stadium-bowl deployment: the same ~90 m²/AP density
// as MDU (≈10× campus) but with very high per-AP client counts and
// bursty event-day load — the worst case for co-channel contention,
// where the planner's only lever is aggressive narrowing plus maximal
// reuse distance. Uplink is not the bottleneck.
func Stadium(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "stadium",
		APCount: 400, AreaW: 200, AreaH: 180, Grid: true,
		MeanClients: 40, DemandMbps: 90,
		Interferers: 20, Load: MuseumLoad,
		UplinkMbps: 0,
	})
}

// Museum builds an MNet-like deployment: ~300 APs, bursty visitor load,
// uplink NOT the bottleneck.
func Museum(seed int64) *Scenario {
	return Generate(ScenarioOptions{
		Seed: seed, Name: "museum",
		// Peak per-AP demand intentionally exceeds what a single clean
		// 20 MHz channel can carry (~127 Mbps effective): MNet's usage
		// was *not* uplink-limited, and TurboCA's +27% peak usage comes
		// from bonding to 80 MHz where the RF neighborhood allows.
		APCount: 300, AreaW: 400, AreaH: 300, Grid: true,
		MeanClients: 7, DemandMbps: 130,
		Interferers: 25, Load: MuseumLoad,
		UplinkMbps: 0,
	})
}

// Package topo generates the deployment topologies the channel-assignment
// experiments run on: AP placement for offices, campuses and museums,
// client populations with capability mixes, external interferers, an
// RF-derived interference graph, and diurnal load curves.
//
// It substitutes for the paper's production networks (UNet, a ~600-AP
// university; MNet, a ~300-AP museum; Meraki HQ): the planner under test
// only ever sees the same inputs the Meraki backend collects — neighbor
// reports, channel utilization, client counts and usage — all of which are
// derived here from explicit geometry and load models.
package topo

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// Point is a position in meters.
type Point struct{ X, Y float64 }

// Dist returns the Euclidean distance to q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// ClientInfo describes one associated client for planning purposes.
type ClientInfo struct {
	MaxWidth    spectrum.Width
	NSS         int
	SupportsCSA bool
	// UsageWeight is the client's share of the AP's traffic.
	UsageWeight float64
}

// ClientMix is everything planning reads about an AP's associated
// clients, folded once when the scenario is built (MixOf): the per-client
// list itself is never kept.
type ClientMix struct {
	// Count is the number of associated clients.
	Count int
	// CSACount is how many support Channel Switch Announcements.
	CSACount int
	// NonCSAMobile / NonCSALaptop partition the non-CSA clients by the
	// disruption model's device-class rule: a non-CSA client at an even
	// index of the list counts as mobile, at an odd one as laptop.
	NonCSAMobile int
	NonCSALaptop int
	// WidthLoad is load(b) (§4.4.1), by spectrum.Width.Slot: each client
	// adds its share of the total UsageWeight to its max width's slot, in
	// list order. No clients or no usage reads as all 20 MHz.
	WidthLoad [4]float64
}

// MixOf folds a client list into its mix.
func MixOf(clients []ClientInfo) ClientMix {
	m := ClientMix{Count: len(clients)}
	total := 0.0
	for i, c := range clients {
		switch {
		case c.SupportsCSA:
			m.CSACount++
		case i%2 == 0:
			m.NonCSAMobile++
		default:
			m.NonCSALaptop++
		}
		total += c.UsageWeight
	}
	if total == 0 {
		m.WidthLoad[0] = 1
		return m
	}
	for _, c := range clients {
		if slot := c.MaxWidth.Slot(); slot >= 0 {
			m.WidthLoad[slot] += c.UsageWeight / total
		}
	}
	return m
}

// AP is one access point in a planning scenario: its static picture (the
// client mix, and through Scenario its neighbor row and external rows) is
// fixed when the scenario is built; only the channels change.
type AP struct {
	ID   int // the AP's position in Scenario.APs
	Name string
	Pos  Point
	// MaxWidth is the radio capability (all 802.11ac APs here: 80 MHz).
	MaxWidth spectrum.Width
	NSS      int
	// Channel is the current 5 GHz assignment.
	Channel spectrum.Channel
	// Channel24 is the current 2.4 GHz assignment.
	Channel24 spectrum.Channel
	// Mix summarizes the associated clients.
	Mix ClientMix
	// BaseDemandMbps is the AP's peak traffic demand, shaped over the day
	// by the scenario's load curve.
	BaseDemandMbps float64
}

// Interferer is a non-network RF source (neighboring building's WiFi,
// video bridge, microwave...) occupying a set of 20 MHz channels with a
// duty cycle.
type Interferer struct {
	Pos    Point
	Band   spectrum.Band
	Chan20 int // 20 MHz channel number it sits on
	Width  spectrum.Width
	Duty   float64 // fraction of airtime occupied near it
	RangeM float64 // distance at which its energy matters
}

// Scenario is a full planning environment. An AP is its position,
// APs[i].ID == i: every per-AP table here, in backend and in the planner
// inputs built from it relies on it, and checkPositions holds it.
type Scenario struct {
	Name        string
	APs         []*AP
	Interferers []*Interferer
	Prop        phy.Propagation
	// CSRangeM is the carrier-sense/interference range between APs.
	CSRangeM float64
	// Load shapes demand over the day: a multiplier in [0,1] by time.
	Load LoadCurve
	// UplinkMbps caps the site's WAN capacity (Table 2: UNet is
	// uplink-limited; MNet is not). Zero means unconstrained.
	UplinkMbps float64

	rng *rand.Rand

	// The static RF picture: what follows from AP and interferer geometry
	// alone, computed once on first use and never invalidated — finish the
	// AP and interferer populations before asking for either part.
	nbrOff  []int                           // NeighborsOf: row i is nbrs[nbrOff[i]:nbrOff[i+1]]
	nbrs    []int                           // every row's positions, end to end
	extRows [spectrum.Band5 + 1][][]float64 // ExternalRow, by band then AP position
}

// checkPositions runs before a table indexed by AP position is built. Both
// scenario builders number APs as they append them: a violation is a bug.
func (s *Scenario) checkPositions() {
	for i, ap := range s.APs {
		if ap.ID != i {
			panic(fmt.Sprintf("topo: scenario %s: APs[%d].ID = %d, want its position", s.Name, i, ap.ID))
		}
	}
}

// NewScenario returns an empty scenario shell — indoor propagation, the
// standard carrier-sense range, the office load curve, and a
// deterministic random source — for callers that assemble AP populations
// from external data rather than the built-in generators. internal/fleetd
// uses it to turn synthesized fleet networks into planning scenarios.
func NewScenario(name string, seed int64) *Scenario {
	return &Scenario{
		Name:     name,
		Prop:     phy.DefaultIndoor(),
		CSRangeM: 45,
		Load:     OfficeLoad,
		rng:      sim.NewRNG(seed),
	}
}

// Rand exposes the scenario's deterministic random source.
func (s *Scenario) Rand() *rand.Rand { return s.rng }

// LinkRSSIDBm is the predicted 5 GHz RSSI between two APs, either way
// round: the signal strength a neighbor report carries.
func (s *Scenario) LinkRSSIDBm(a, b *AP) float64 {
	d := a.Pos.Dist(b.Pos)
	return phy.DefaultAPTxPowerDBm + 2*phy.DefaultAntennaGainDBi - s.Prop.PathLossDB(spectrum.Band5, d, wallsFor(d))
}

// NeighborsOf returns the positions of the APs ap hears — within
// carrier-sense range and above the carrier-sense threshold — in ascending
// order: a shared, read-only row of the interference graph. The graph is
// pure geometry, so it is built whole on the first call, one O(n²) pass
// into one table however many polls and planner snapshots follow. A row's
// capacity ends where it does, so appending to one copies it.
func (s *Scenario) NeighborsOf(ap *AP) []int {
	if s.nbrOff == nil {
		s.checkPositions()
		s.nbrOff = make([]int, 1, len(s.APs)+1)
		for i, a := range s.APs {
			for j, other := range s.APs {
				if j == i || a.Pos.Dist(other.Pos) > s.CSRangeM || s.LinkRSSIDBm(a, other) < phy.CarrierSenseThresholdDBm {
					continue
				}
				s.nbrs = append(s.nbrs, j)
			}
			s.nbrOff = append(s.nbrOff, len(s.nbrs))
		}
	}
	lo, hi := s.nbrOff[ap.ID], s.nbrOff[ap.ID+1]
	return s.nbrs[lo:hi:hi]
}

// wallsFor estimates interior wall crossings from distance in an office.
func wallsFor(d float64) int {
	return int(d / 12) // one partition roughly every 12 m
}

// ExternalUtilization returns the fraction of airtime an AP at pos loses
// to non-network interferers on the given 20 MHz channel.
func (s *Scenario) ExternalUtilization(pos Point, band spectrum.Band, chan20 int) float64 {
	util := 0.0
	for _, in := range s.Interferers {
		if in.Band != band {
			continue
		}
		if !coversChannel(in, chan20) {
			continue
		}
		d := pos.Dist(in.Pos)
		if d > in.RangeM {
			continue
		}
		// Energy (and thus deferral probability) falls off with distance.
		util += in.Duty * (1 - d/in.RangeM)
	}
	if util > 1 {
		util = 1
	}
	return util
}

// ExternalRow returns ExternalUtilization at ap's position on every 20 MHz
// channel of band, as a sub-channel row — entry i belongs to
// spectrum.Channels(band, W20, true)[i], bit i of a spectrum.ID mask — or
// nil when no interferer reaches ap there. A row is computed once and shared
// by every planner input and model evaluation: callers must not write to it.
// The first call for a band computes every AP's row.
func (s *Scenario) ExternalRow(ap *AP, band spectrum.Band) []float64 {
	if s.extRows[band] == nil {
		s.checkPositions()
		subs := spectrum.Channels(band, spectrum.W20, true)
		rows := make([][]float64, len(s.APs))
		for k, a := range s.APs {
			for i, c := range subs {
				if u := s.ExternalUtilization(a.Pos, band, c.Number); u > 0 {
					if rows[k] == nil {
						rows[k] = make([]float64, len(subs))
					}
					rows[k][i] = u
				}
			}
		}
		s.extRows[band] = rows
	}
	return s.extRows[band][ap.ID]
}

func coversChannel(in *Interferer, chan20 int) bool {
	// The interferer occupies the bond around its anchor 20 MHz channel
	// (bonded channels are centered elsewhere, e.g. ch36@80MHz has center
	// number 42).
	target := spectrum.Channel{Band: in.Band, Number: chan20, Width: spectrum.W20}
	return spectrum.Bonded(in.Band, in.Chan20, in.Width).Overlaps(target)
}

// LoadCurve maps time-of-day to a demand multiplier in [0,1].
type LoadCurve func(t sim.Time) float64

// OfficeLoad is the Fig 6 shape: ramp at 9am, lunch dip, afternoon burst,
// evening decay.
func OfficeLoad(t sim.Time) float64 {
	h := hourOfDay(t)
	switch {
	case h < 7:
		return 0.05
	case h < 9:
		return 0.05 + 0.35*(h-7)/2
	case h < 12:
		return 0.7 + 0.1*math.Sin((h-9)*math.Pi/3)
	case h < 13:
		return 0.5 // lunch dip
	case h < 14.5:
		return 0.9 // afternoon burst (the 2pm spike in Fig 6)
	case h < 18:
		return 0.7 - 0.1*(h-14.5)/3.5
	case h < 21:
		return 0.3
	default:
		return 0.08
	}
}

// MuseumLoad peaks middday with visitors.
func MuseumLoad(t sim.Time) float64 {
	h := hourOfDay(t)
	switch {
	case h < 9 || h >= 18:
		return 0.03
	case h < 11:
		return 0.03 + 0.5*(h-9)/2
	case h < 16:
		return 0.55 + 0.35*math.Sin((h-11)*math.Pi/5)
	default:
		return 0.55 * (18 - h) / 2
	}
}

// CampusLoad follows class schedule blocks.
func CampusLoad(t sim.Time) float64 {
	h := hourOfDay(t)
	switch {
	case h < 7:
		return 0.08
	case h < 8:
		return 0.2
	case h < 17:
		// Peaks on class-hour boundaries.
		base := 0.55
		return base + 0.25*math.Abs(math.Sin(h*math.Pi/1.0))*0.8
	case h < 22:
		return 0.45 // evening study
	default:
		return 0.15
	}
}

// SchoolLoad steps with class periods: sharp rises at period boundaries
// and near-zero outside school hours.
func SchoolLoad(t sim.Time) float64 {
	h := hourOfDay(t)
	switch {
	case h < 7.5 || h >= 16:
		return 0.04
	case h < 8:
		return 0.3
	default:
		// 50-minute periods with 10-minute passing spikes.
		minutes := (h - 8) * 60
		inPassing := int(minutes)%60 >= 50
		if inPassing {
			return 0.95 // everyone on their phone in the hallway
		}
		return 0.55
	}
}

// HotelLoad is evening-heavy: guests out all day, streaming at night.
func HotelLoad(t sim.Time) float64 {
	h := hourOfDay(t)
	switch {
	case h < 6:
		return 0.25 // overnight streams trailing off
	case h < 10:
		return 0.45 // morning checkout/email
	case h < 17:
		return 0.15
	case h < 23:
		return 0.9 // the evening Netflix peak
	default:
		return 0.5
	}
}

func hourOfDay(t sim.Time) float64 {
	day := t % sim.Day
	return float64(day) / float64(sim.Hour)
}

// DemandAt returns an AP's offered load in Mbps at time t, with small
// deterministic per-AP phase jitter so APs do not move in lockstep.
func (s *Scenario) DemandAt(ap *AP, t sim.Time) float64 {
	jitter := sim.Time(ap.ID%7) * 13 * sim.Minute
	return ap.BaseDemandMbps * s.Load(t+jitter)
}

func (s *Scenario) String() string {
	return fmt.Sprintf("scenario %s: %d APs, %d interferers", s.Name, len(s.APs), len(s.Interferers))
}

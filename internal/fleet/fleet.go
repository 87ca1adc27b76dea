// Package fleet synthesizes a Meraki-scale population of networks, APs
// and clients and reruns the Section 3 measurement study over it. The
// paper's fleet numbers are population statistics over proprietary data;
// here the population is generated from explicit parametric models
// calibrated to the published 2015/2017 figures, and every reported
// number is then *measured* from the generated population with the same
// aggregation queries a backend would run — so the pipeline (generate ->
// store -> query -> CDF) is real even though the population is synthetic.
package fleet

import (
	"math"
	"math/rand"

	"repro/internal/phy"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

// ClientCaps is the capability set a client advertises on association
// (probe/assoc request IEs), the basis of Fig 1.
type ClientCaps struct {
	Supports5GHz bool
	VHT          bool // 802.11ac
	MaxWidth     spectrum.Width
	NSS          int
}

// CapabilityModel holds the advertised-capability mixture for a cohort
// year.
type CapabilityModel struct {
	Year    int
	PVHT    float64 // 802.11ac-capable
	P24Only float64 // supports 2.4 GHz but not 5 GHz
	P40MHz  float64 // >= 40 MHz capable (given 5 GHz support)
	P80MHz  float64 // >= 80 MHz capable (given VHT)
	P2SS    float64
	P3SS    float64
}

// Cohort2015 and Cohort2017 are calibrated to Fig 1: 802.11ac grew from
// 18% to 46%, 2.4-only stayed ~40%, 2-stream grew 19% -> 37%.
var (
	Cohort2015 = CapabilityModel{Year: 2015, PVHT: 0.18, P24Only: 0.41, P40MHz: 0.55, P80MHz: 0.85, P2SS: 0.15, P3SS: 0.04}
	Cohort2017 = CapabilityModel{Year: 2017, PVHT: 0.46, P24Only: 0.40, P40MHz: 0.80, P80MHz: 0.90, P2SS: 0.29, P3SS: 0.08}
)

// Sample draws one client's capabilities from the cohort.
func (m CapabilityModel) Sample(rng *rand.Rand) ClientCaps {
	c := ClientCaps{MaxWidth: spectrum.W20, NSS: 1}
	c.Supports5GHz = rng.Float64() >= m.P24Only
	if c.Supports5GHz {
		c.VHT = rng.Float64() < m.PVHT/(1-m.P24Only) // VHT implies 5 GHz
		if rng.Float64() < m.P40MHz {
			c.MaxWidth = spectrum.W40
		}
		if c.VHT && rng.Float64() < m.P80MHz {
			c.MaxWidth = spectrum.W80
		}
	}
	r := rng.Float64()
	switch {
	case r < m.P3SS:
		c.NSS = 3
	case r < m.P3SS+m.P2SS:
		c.NSS = 2
	}
	return c
}

// AP is one fleet access point.
type AP struct {
	NetworkID int
	X, Y      float64 // meters within the network's site
	Indoor    bool
	// Standard generation: "ac", "n", "g".
	Standard string
	Chains   int
	// ConfiguredWidth is the admin/auto channel-width setting (Table 1).
	ConfiguredWidth spectrum.Width
	Channel5        spectrum.Channel
	Channel24       spectrum.Channel
	// MaxClients is the AP's peak associated-client count for the month
	// (client-density study, §3.2.3).
	MaxClients int
	// Util is the observed utilization per band.
	Util24, Util5 float64
}

// Network is one customer deployment.
type Network struct {
	ID  int
	APs []*AP
	// Foreign holds neighboring-organization APs audible inside the
	// site. They dominate 2.4 GHz interferer counts: foreign gear sits
	// on arbitrary (often overlapping) 2.4 GHz channels, while only some
	// of it runs 5 GHz radios spread over 25 channels.
	Foreign []*AP
	// AreaM is the site's square side in meters.
	AreaM float64
	// DensityClass drives utilization and client count models.
	DensityClass int // 0 sparse .. 2 very dense
}

// Fleet is the synthesized population.
type Fleet struct {
	Networks []*Network
	// Opt is the resolved synthesis recipe this fleet was generated from.
	// A fleet is a pure function of Opt, so recording it makes the whole
	// population replayable from one small record (fleetd's intent journal
	// relies on this: re-running Generate(Opt) is the recovery path).
	Opt Options
	rng *rand.Rand
}

// Options sizes the synthesis.
type Options struct {
	Seed     int64
	Networks int // number of networks (default 1000)
	// MaxAPs caps each network's AP count (0 = uncapped), clamping the
	// log-normal size draw. Chaos campaigns use small caps to afford
	// hundreds of networks per seed.
	MaxAPs int
	// MinAPs filters nothing at generation; the Section 3 queries filter
	// to networks with >= 10 APs as the paper does.
}

// Generate builds a fleet.
func Generate(opt Options) *Fleet {
	if opt.Networks <= 0 {
		opt.Networks = 1000
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	f := &Fleet{Opt: opt, rng: rng}

	ch24 := spectrum.NonOverlapping24
	ch5 := spectrum.Channels(spectrum.Band5, spectrum.W20, false)

	for n := 0; n < opt.Networks; n++ {
		// Network size: log-normal-ish, 1..~900 APs, median ~12.
		size := int(math.Exp(rng.NormFloat64()*1.1+2.5)) + 1
		if size > 900 {
			size = 900
		}
		if opt.MaxAPs > 0 && size > opt.MaxAPs {
			size = opt.MaxAPs
		}
		density := rng.Intn(3)
		// Site area scales with AP count; denser classes pack tighter.
		perAPArea := []float64{700, 280, 70}[density] // m^2 per AP
		area := math.Sqrt(float64(size) * perAPArea)
		net := &Network{ID: n, AreaM: area, DensityClass: density}

		for i := 0; i < size; i++ {
			ap := &AP{
				NetworkID: n,
				X:         rng.Float64() * area,
				Y:         rng.Float64() * area,
				Indoor:    rng.Float64() < 0.93,
				Standard:  sampleStandard(rng),
				Chains:    sampleChains(rng),
			}
			ap.ConfiguredWidth = sampleWidth(rng, size)
			ap.Channel24 = spectrum.Channel{Band: spectrum.Band2G4, Number: ch24[rng.Intn(len(ch24))], Width: spectrum.W20}
			base := ch5[rng.Intn(len(ch5))]
			ap.Channel5 = spectrum.Bonded(base.Band, base.Number, ap.ConfiguredWidth)
			ap.MaxClients = sampleMaxClients(rng, density)
			ap.Util24, ap.Util5 = sampleUtilization(rng, density)
			net.APs = append(net.APs, ap)
		}
		// Foreign APs: scale with site density (urban sites hear more
		// neighbors). All have 2.4 GHz on an arbitrary 1-11 channel;
		// under half also run 5 GHz.
		nForeign := int(rng.ExpFloat64() * float64(size) * []float64{0.4, 0.8, 1.3}[density])
		if nForeign > 4*size {
			nForeign = 4 * size
		}
		for i := 0; i < nForeign; i++ {
			fap := &AP{
				NetworkID: n,
				X:         rng.Float64() * area,
				Y:         rng.Float64() * area,
				Channel24: spectrum.Channel{Band: spectrum.Band2G4, Number: 1 + rng.Intn(11), Width: spectrum.W20},
			}
			if rng.Float64() < 0.45 {
				w := sampleWidth(rng, 1)
				base := ch5[rng.Intn(len(ch5))]
				fap.Channel5 = spectrum.Bonded(base.Band, base.Number, w)
			}
			net.Foreign = append(net.Foreign, fap)
		}
		f.Networks = append(f.Networks, net)
	}
	return f
}

// sampleStandard matches §3.2.1: 52% ac, 47% n, 1% g.
func sampleStandard(rng *rand.Rand) string {
	r := rng.Float64()
	switch {
	case r < 0.52:
		return "ac"
	case r < 0.99:
		return "n"
	default:
		return "g"
	}
}

// sampleChains matches §3.2.1: <1% one, 73% two, 24% three, 2% four.
func sampleChains(rng *rand.Rand) int {
	r := rng.Float64()
	switch {
	case r < 0.01:
		return 1
	case r < 0.74:
		return 2
	case r < 0.98:
		return 3
	default:
		return 4
	}
}

// sampleWidth matches Table 1: larger networks trim widths slightly more.
func sampleWidth(rng *rand.Rand, networkSize int) spectrum.Width {
	r := rng.Float64()
	if networkSize > 10 {
		switch {
		case r < 0.173:
			return spectrum.W20
		case r < 0.173+0.194:
			return spectrum.W40
		default:
			return spectrum.W80
		}
	}
	// Small networks keep the 80 MHz default far more often, which is
	// what pushes the all-AP mixture of Table 1 above the large-network
	// column.
	switch {
	case r < 0.10:
		return spectrum.W20
	case r < 0.10+0.14:
		return spectrum.W40
	default:
		return spectrum.W80
	}
}

// sampleMaxClients matches the §3.2.3 client-density buckets: 33% <=5,
// 22% 6-10, 20% 11-20, 25% >=21, max observed 338.
func sampleMaxClients(rng *rand.Rand, density int) int {
	r := rng.Float64()
	switch {
	case r < 0.33:
		return 1 + rng.Intn(5)
	case r < 0.55:
		return 6 + rng.Intn(5)
	case r < 0.75:
		return 11 + rng.Intn(10)
	default:
		// Pareto-ish tail capped at the paper's observed maximum.
		v := 21 + int(rng.ExpFloat64()*25)
		if density == 2 {
			v += rng.Intn(110)
		}
		if v > 338 {
			v = 338
		}
		return v
	}
}

// sampleUtilization draws per-band utilization: medians 20%/3% for the
// general fleet (Fig 2), with density shifting the curve.
func sampleUtilization(rng *rand.Rand, density int) (u24, u5 float64) {
	shift := []float64{-0.05, 0, 0.10}[density]
	u24 = clamp01(logNormal(rng, 0.20+shift, 0.9))
	u5 = clamp01(logNormal(rng, 0.03+shift*0.3, 1.1))
	return
}

// logNormal draws a log-normal variate with the given median and sigma.
func logNormal(rng *rand.Rand, median, sigma float64) float64 {
	if median <= 0 {
		median = 0.001
	}
	return median * math.Exp(rng.NormFloat64()*sigma)
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Rand exposes the fleet RNG for dependent samplers.
func (f *Fleet) Rand() *rand.Rand { return f.rng }

// LargeNetworks returns networks with at least min APs (the paper's
// >= 10 filter).
func (f *Fleet) LargeNetworks(min int) []*Network {
	var out []*Network
	for _, n := range f.Networks {
		if len(n.APs) >= min {
			out = append(out, n)
		}
	}
	return out
}

// APCount returns the total AP count.
func (f *Fleet) APCount() int {
	n := 0
	for _, net := range f.Networks {
		n += len(net.APs)
	}
	return n
}

// UtilizationCDF collects per-AP utilization for the band over networks
// with >= minAPs APs (Fig 2).
func (f *Fleet) UtilizationCDF(band spectrum.Band, minAPs int) *stats.Sample {
	s := stats.NewSample(4096)
	for _, net := range f.LargeNetworks(minAPs) {
		for _, ap := range net.APs {
			if band == spectrum.Band2G4 {
				s.Add(ap.Util24)
			} else {
				s.Add(ap.Util5)
			}
		}
	}
	return s
}

// interferenceRange is the distance within which a co-channel AP counts
// as an interferer.
const interferenceRange = 40.0

// InterfererCDF counts, for every AP in large networks, the same-band
// co-channel APs within interference range (Fig 3). This is measured
// from the generated geometry and channel plans, not sampled.
func (f *Fleet) InterfererCDF(band spectrum.Band, minAPs int) *stats.Sample {
	s := stats.NewSample(4096)
	for _, net := range f.LargeNetworks(minAPs) {
		for i, ap := range net.APs {
			count := 0
			for j, other := range net.APs {
				if i != j && interferes(ap, other, band) {
					count++
				}
			}
			for _, other := range net.Foreign {
				if interferes(ap, other, band) {
					count++
				}
			}
			s.Add(float64(count))
		}
	}
	return s
}

func interferes(ap, other *AP, band spectrum.Band) bool {
	dx, dy := ap.X-other.X, ap.Y-other.Y
	if dx*dx+dy*dy > interferenceRange*interferenceRange {
		return false
	}
	if band == spectrum.Band2G4 {
		return other.Channel24.Width != 0 && ap.Channel24.Overlaps(other.Channel24)
	}
	return other.Channel5.Width != 0 && ap.Channel5.Overlaps(other.Channel5)
}

// ClientDensityBuckets tallies per-AP max clients into the paper's
// buckets over large 802.11ac networks (§3.2.3).
func (f *Fleet) ClientDensityBuckets(minAPs int) *stats.Counter {
	c := stats.NewCounter()
	for _, net := range f.LargeNetworks(minAPs) {
		for _, ap := range net.APs {
			if ap.Standard != "ac" {
				continue
			}
			switch {
			case ap.MaxClients <= 5:
				c.Add("<=5")
			case ap.MaxClients <= 10:
				c.Add("6-10")
			case ap.MaxClients <= 20:
				c.Add("11-20")
			default:
				c.Add(">=21")
			}
		}
	}
	return c
}

// MaxClientDensity returns the single most-loaded AP's client count.
func (f *Fleet) MaxClientDensity() int {
	max := 0
	for _, net := range f.Networks {
		for _, ap := range net.APs {
			if ap.MaxClients > max {
				max = ap.MaxClients
			}
		}
	}
	return max
}

// WidthTable reproduces Table 1: the configured-width mixture for all
// 802.11ac APs and for APs in networks larger than 10.
func (f *Fleet) WidthTable() (all, large *stats.Counter) {
	all, large = stats.NewCounter(), stats.NewCounter()
	for _, net := range f.Networks {
		for _, ap := range net.APs {
			if ap.Standard != "ac" {
				continue
			}
			key := ap.ConfiguredWidth.String()
			all.Add(key)
			if len(net.APs) > 10 {
				large.Add(key)
			}
		}
	}
	return all, large
}

// CapabilityReport reruns Fig 1 for a cohort: fractions of nClients
// advertising each capability. Fidelity note: each client is counted as
// its association request would advertise it (§3.2.1). A VHT
// capabilities element cannot advertise less than 80 MHz, so every
// 802.11ac client counts as >=40 MHz capable whatever width it drew.
func CapabilityReport(m CapabilityModel, nClients int, seed int64) *stats.Counter {
	rng := rand.New(rand.NewSource(seed))
	c := stats.NewCounter()
	for i := 0; i < nClients; i++ {
		caps := m.Sample(rng)
		c.Add("all")
		if !caps.Supports5GHz {
			c.Add("2.4GHz-only")
		}
		if caps.VHT {
			c.Add("802.11ac")
		}
		if caps.VHT || caps.MaxWidth >= spectrum.W40 { // 802.11ac makes 80 MHz mandatory
			c.Add(">=40MHz")
		}
		if caps.NSS >= 2 {
			c.Add(">=2SS")
		}
	}
	return c
}

// BitrateDistribution samples achieved 5 GHz PHY rates across the client
// population (Fig 5): capability mix x indoor SNR distribution -> highest
// rate with acceptable error, via the phy tables.
func (f *Fleet) BitrateDistribution(nSamples int) *stats.Sample {
	s := stats.NewSample(nSamples)
	model := Cohort2017
	for i := 0; i < nSamples; i++ {
		caps := model.Sample(f.rng)
		if !caps.Supports5GHz {
			continue
		}
		width := caps.MaxWidth
		if !caps.VHT && width > spectrum.W40 {
			width = spectrum.W40
		}
		snr := 18 + f.rng.Float64()*28 // indoor association SNR spread
		rate := bestRate(caps.NSS, width, snr)
		s.Add(rate)
	}
	return s
}

// bestRate picks the fastest rate with PER below 10% at the SNR.
func bestRate(nss int, w spectrum.Width, snr float64) float64 {
	best := 0.0
	for _, r := range phy.RatesForWidth(nss, w, phy.SGI) {
		if r.PER(snr, 1500) <= 0.10 && r.Mbps() > best {
			best = r.Mbps()
		}
	}
	if best == 0 {
		best = phy.Rate{MCS: 0, NSS: 1, Width: spectrum.W20, GI: phy.LGI}.Mbps()
	}
	return best
}

package phy

import (
	"math"
	"math/rand"

	"repro/internal/spectrum"
)

// Propagation is a log-distance indoor path-loss model with log-normal
// shadowing, the standard model for enterprise office RF planning.
//
//	PL(d) = PL(d0) + 10·n·log10(d/d0) + Xσ
//
// where PL(d0) is the free-space loss at the reference distance (1 m) for
// the carrier frequency, n is the path-loss exponent (≈3 for offices with
// interior walls), and Xσ is zero-mean Gaussian shadowing.
type Propagation struct {
	// Exponent is the path-loss exponent n. Free space is 2.0; dense
	// offices are 3.0-3.5.
	Exponent float64
	// ShadowSigmaDB is the standard deviation of log-normal shadowing.
	ShadowSigmaDB float64
	// WallLossDB is added once per wall crossed (callers supply counts).
	WallLossDB float64
}

// DefaultIndoor is tuned for a drywall-partitioned enterprise office.
func DefaultIndoor() Propagation {
	return Propagation{Exponent: 3.0, ShadowSigmaDB: 4.0, WallLossDB: 5.0}
}

// freeSpaceAt1m returns the free-space path loss at 1 m for the band.
func freeSpaceAt1m(band spectrum.Band) float64 {
	// FSPL(dB) = 20 log10(d) + 20 log10(f MHz) − 27.55, d in meters.
	fMHz := 2437.0
	if band == spectrum.Band5 {
		fMHz = 5250.0
	}
	return 20*math.Log10(fMHz) - 27.55
}

// PathLossDB returns the deterministic path loss over distance meters with
// walls interior walls, excluding shadowing.
func (p Propagation) PathLossDB(band spectrum.Band, meters float64, walls int) float64 {
	if meters < 1 {
		meters = 1
	}
	return freeSpaceAt1m(band) + 10*p.Exponent*math.Log10(meters) + float64(walls)*p.WallLossDB
}

// Shadowed returns path loss including a shadowing draw from rng.
func (p Propagation) Shadowed(band spectrum.Band, meters float64, walls int, rng *rand.Rand) float64 {
	return p.PathLossDB(band, meters, walls) + rng.NormFloat64()*p.ShadowSigmaDB
}

// NoiseFloorDBm returns thermal noise power for the given bandwidth plus a
// typical 7 dB receiver noise figure: −174 dBm/Hz + 10·log10(BW) + NF.
func NoiseFloorDBm(w spectrum.Width) float64 {
	bwHz := float64(w) * 1e6
	return -174 + 10*math.Log10(bwHz) + 7
}

// Link describes one radio link budget.
type Link struct {
	TxPowerDBm float64 // conducted transmit power
	TxGainDBi  float64 // transmit antenna gain
	RxGainDBi  float64 // receive antenna gain
	LossDB     float64 // path loss (deterministic + shadowing)
}

// RSSIDBm returns the received signal strength.
func (l Link) RSSIDBm() float64 {
	return l.TxPowerDBm + l.TxGainDBi + l.RxGainDBi - l.LossDB
}

// SNRDB returns the link SNR for the given receive bandwidth.
func (l Link) SNRDB(w spectrum.Width) float64 {
	return l.RSSIDBm() - NoiseFloorDBm(w)
}

// DefaultAPTxPowerDBm is a typical enterprise AP 5 GHz transmit power.
const DefaultAPTxPowerDBm = 20.0

// DefaultAntennaGainDBi is a typical integrated omni antenna gain.
const DefaultAntennaGainDBi = 3.0

// CarrierSenseThresholdDBm is the energy level above which a station defers
// (clear channel assessment for valid 802.11 preambles).
const CarrierSenseThresholdDBm = -82.0

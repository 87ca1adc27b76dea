package testbed

import (
	"math"
	"math/rand"

	"repro/internal/sim"
)

// Channel dynamics: real 802.11 links are not static. People walk through
// Fresnel zones, doors open, neighbouring devices key up. The testbed
// models each client's link SNR as a Gauss-Markov process around its base
// value, with occasional deep-fade events. During a fade the rate
// controller's current MCS suddenly carries a high PER, MAC retries
// exhaust, and MPDUs drop — the wireless losses that make baseline TCP
// back off end-to-end (and that FastACK absorbs with local
// retransmissions, §5.5.1).
//
// Each client owns a dedicated RNG seeded from (seed, client index) and
// the fade process is sampled on a fixed 100 ms grid, so the channel
// realisation is identical across runs regardless of AP mode or traffic —
// baseline and FastACK are compared over the same air.

// The fade process's shape: a quiet performance lab, with modest jitter
// and a deep fade (someone walking through the path) every couple of
// minutes per client.
const (
	// fadeStep is the sampling grid of the process.
	fadeStep = 100 * sim.Millisecond
	// fadeSigmaDB is the stationary std-dev of the Gauss-Markov jitter.
	fadeSigmaDB float64 = 2.0
	// fadeRho is the per-step autocorrelation.
	fadeRho float64 = 0.9
	// fadeEventsPerMinute is the mean rate of deep-fade events per client.
	fadeEventsPerMinute float64 = 0.5
	// fadeDepthMinDB and fadeDepthMaxDB bound the fade depth.
	fadeDepthMinDB float64 = 8
	fadeDepthMaxDB float64 = 18
	// fadeDurMin and fadeDurMax bound the fade duration.
	fadeDurMin = 100 * sim.Millisecond
	fadeDurMax = 600 * sim.Millisecond
)

type fader struct {
	c    *Client
	rng  *rand.Rand
	base float64

	jitter    float64
	fadeLeft  int // remaining steps of the active fade
	fadeDepth float64
}

func (tb *Testbed) startFading() {
	if tb.Opt.NoFading {
		return
	}
	for _, c := range tb.Clients {
		f := &fader{
			c:    c,
			rng:  rand.New(rand.NewSource(tb.Opt.Seed*1000003 + int64(c.Index))),
			base: c.SNR,
		}
		tb.Engine.Ticker(fadeStep, f.step)
	}
}

func (f *fader) step(e *sim.Engine) {
	// Gauss-Markov jitter around the base SNR.
	f.jitter = fadeRho*f.jitter + fadeSigmaDB*f.rng.NormFloat64()*math.Sqrt(1-fadeRho*fadeRho)

	// Deep-fade event process.
	if f.fadeLeft > 0 {
		f.fadeLeft--
	} else {
		f.fadeDepth = 0
		pEvent := fadeEventsPerMinute / 60 * fadeStep.Seconds()
		if f.rng.Float64() < pEvent {
			f.fadeDepth = fadeDepthMinDB + f.rng.Float64()*(fadeDepthMaxDB-fadeDepthMinDB)
			dur := fadeDurMin + sim.Time(f.rng.Int63n(int64(fadeDurMax-fadeDurMin+1)))
			f.fadeLeft = int(dur / fadeStep)
			if f.fadeLeft < 1 {
				f.fadeLeft = 1
			}
		}
	}

	snr := f.base + f.jitter - f.fadeDepth
	f.c.tb.Medium.SetSNR(f.c.AP.Station.ID, f.c.Station.ID, snr)
}

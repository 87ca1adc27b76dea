package turboca

import (
	"math"

	"repro/internal/spectrum"
)

// maxSaneLoad bounds an AP's load weight. Load exponentiates
// channel_metric inside NodeP, so a wild value (a corrupted usage report
// scaled by 1e6) would let one AP dominate — or destroy — NetP for the
// whole network.
const maxSaneLoad = 64

// Sanitize validates and repairs a planning input in place, so malformed
// telemetry cannot silently corrupt NodeP/NetP: duplicate AP IDs are
// dropped (first occurrence wins), NaN and negative loads are clamped,
// utilization and CSA fractions are forced into [0, 1], neighbor
// references to unknown APs and self-loops are removed, empty width-load
// mixes default to all-20MHz, and a current channel that is not a US
// channel of the input band is cleared to the zero Channel, the "never
// assigned" state the planner already handles. It returns the number of corrections applied; a well-formed
// input returns 0 and is left untouched.
func (in *Input) Sanitize() int {
	fixes := 0

	// Duplicate AP IDs: a doubled view would double-count the AP's NodeP
	// and alias its neighbor edges.
	seen := make(map[int]bool, len(in.APs))
	kept := in.APs[:0]
	for i := range in.APs {
		if seen[in.APs[i].ID] {
			fixes++
			continue
		}
		seen[in.APs[i].ID] = true
		kept = append(kept, in.APs[i])
	}
	in.APs = kept

	for i := range in.APs {
		v := &in.APs[i]
		v.Load, fixes = clampField(v.Load, 0, maxSaneLoad, fixes)
		v.Utilization, fixes = clampField(v.Utilization, 0, 1, fixes)
		v.CSAFraction, fixes = clampField(v.CSAFraction, 0, 1, fixes)
		if !v.MaxWidth.Valid() {
			v.MaxWidth = spectrum.W20
			fixes++
		}
		if v.Current != (spectrum.Channel{}) {
			if _, ok := spectrum.IDOf(v.Current); !ok || v.Current.Band != in.Band {
				v.Current = spectrum.Channel{}
				fixes++
			}
		}

		for w, s := range v.WidthLoad {
			if !w.Valid() || math.IsNaN(s) || math.IsInf(s, 0) || s <= 0 {
				delete(v.WidthLoad, w)
				fixes++
			}
		}
		if len(v.WidthLoad) == 0 {
			v.WidthLoad = map[spectrum.Width]float64{spectrum.W20: 1}
			fixes++
		}

		neigh := v.Neighbors[:0]
		for _, id := range v.Neighbors {
			if id == v.ID || !seen[id] {
				fixes++
				continue
			}
			neigh = append(neigh, id)
		}
		v.Neighbors = neigh

		for ch, u := range v.ExternalUtil {
			switch {
			case math.IsNaN(u) || u < 0:
				delete(v.ExternalUtil, ch)
				fixes++
			case u > 1:
				v.ExternalUtil[ch] = 1
				fixes++
			}
		}
	}

	// Band-wide trace noise obeys the same domain as ExternalUtil: a
	// utilization fraction per 20 MHz channel.
	for ch, u := range in.ChannelNoise {
		switch {
		case math.IsNaN(u) || u <= 0:
			delete(in.ChannelNoise, ch)
			fixes++
		case u > 1:
			in.ChannelNoise[ch] = 1
			fixes++
		}
	}
	// A false entry in Blocked means "not quarantined"; canonicalize it
	// away so digests of equivalent quarantine states match.
	for s, b := range in.Blocked {
		if !b {
			delete(in.Blocked, s)
			fixes++
		}
	}
	return fixes
}

// clampField forces x into [lo, hi], mapping NaN to lo, and threads the
// fix counter.
func clampField(x, lo, hi float64, fixes int) (float64, int) {
	switch {
	case math.IsNaN(x) || x < lo:
		return lo, fixes + 1
	case x > hi:
		return hi, fixes + 1
	}
	return x, fixes
}

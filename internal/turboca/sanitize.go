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
// dropped (first occurrence wins, and takes the edges that pointed at the
// others), NaN and negative loads are clamped, utilization and CSA
// fractions are forced into [0, 1], neighbor entries that are no position
// in APs and self-loops are removed, empty width-load
// mixes default to all-20MHz, a current channel that is not a US channel
// of the input band is cleared to the zero Channel, the "never assigned"
// state the planner already handles, and sub-channel rows and the blocked
// mask are cut to the band (sanitizeRow). It returns the number of
// corrections applied; a well-formed input returns 0 and is left untouched.
func (in *Input) Sanitize() int {
	fixes := 0
	subs := len(spectrum.Channels(in.Band, spectrum.W20, true))

	// Duplicate AP IDs: a doubled view would double-count the AP's NodeP.
	// The one place an ID is resolved to a position: seen is where each
	// kept ID sits, and moved, once a view has been dropped, where every
	// original position went — a dropped view's to the first of its ID.
	n := len(in.APs)
	seen := make(map[int]int, n)
	var moved []int
	kept := in.APs[:0]
	for i := range in.APs {
		first, dup := seen[in.APs[i].ID]
		if dup {
			if moved == nil {
				moved = make([]int, n)
				for k := range moved[:i] {
					moved[k] = k
				}
			}
			moved[i] = first
			fixes++
			continue
		}
		seen[in.APs[i].ID] = len(kept)
		if moved != nil {
			moved[i] = len(kept)
		}
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

		for slot, s := range v.WidthLoad {
			if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
				v.WidthLoad[slot] = 0
				fixes++
			}
		}
		if v.WidthLoad == ([4]float64{}) {
			v.WidthLoad[0] = 1
			fixes++
		}

		ns, dropped := repairNeighbors(v.Neighbors, i, n, moved)
		v.Neighbors, fixes = ns, fixes+dropped
		v.ExternalUtil, fixes = sanitizeRow(v.ExternalUtil, subs, fixes)
	}

	// Band-wide trace noise obeys the same domain as ExternalUtil: a
	// utilization fraction per 20 MHz channel.
	in.ChannelNoise, fixes = sanitizeRow(in.ChannelNoise, subs, fixes)
	// A bit beyond the band's last sub-channel quarantines nothing.
	if stray := in.Blocked >> subs << subs; stray != 0 {
		in.Blocked &^= stray
		fixes++
	}
	return fixes
}

// repairNeighbors returns a neighbor list without its entries that are no
// position among n views and, after renumbering through moved (nil:
// nothing moved), without those equal to self (-1 keeps self-loops), and
// how many it dropped. Lists are shared between snapshots: one that needs
// no repair is returned as it came, one that does is rebuilt, never in place.
func repairNeighbors(ns []int, self, n int, moved []int) (out []int, dropped int) {
	out, own := ns, false
	for k, j := range ns {
		drop := uint(j) >= uint(n)
		if !drop && moved != nil {
			j = moved[j]
		}
		drop = drop || j == self
		if !own && (drop || j != ns[k]) {
			out, own = append(make([]int, 0, len(ns)), ns[:k]...), true
		}
		if drop {
			dropped++
		} else if own {
			out = append(out, j)
		}
	}
	return out, dropped
}

// sanitizeRow forces a sub-channel row into its domain, a utilization
// fraction for each of the band's subs 20 MHz channels: NaN and negative
// entries become zero, entries above 1 become 1, and a row longer than the
// band is resliced to it. The surplus is cut off, never written: rows are
// shared between snapshots, and only an invalid entry may change under one.
func sanitizeRow(row []float64, subs, fixes int) ([]float64, int) {
	if len(row) > subs {
		row = row[:subs:subs]
		fixes++
	}
	for i, u := range row {
		switch {
		case math.IsNaN(u) || u < 0:
			row[i] = 0
			fixes++
		case u > 1:
			row[i] = 1
			fixes++
		}
	}
	return row, fixes
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

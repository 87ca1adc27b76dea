package turboca

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/spectrum"
)

// mapInput is a planning input in the shape Input had before its
// per-channel fields became rows: the scalar fields and neighbor lists in
// in, and beside it what used to be maps — each AP's width mix by Width
// and external utilization by 20 MHz channel number, the quarantined
// channel numbers, the band's noise by number.
type mapInput struct {
	in           Input
	widthLoad    []map[spectrum.Width]float64
	externalUtil []map[int]float64
	blocked      map[int]bool
	channelNoise map[int]float64
}

// refDigest is Input.Digest as it was over that shape — every journal,
// checkpoint and golden file written before the rows holds its bytes: maps
// folded by collecting their keys, sorting them, and hashing a count and
// then (key, value) pairs.
func refDigest(m mapInput) uint64 {
	d := &digester{h: fnvOffset64}
	d.i64(int64(m.in.Band))
	d.bool(m.in.AllowDFS)
	d.i64(int64(m.in.MaxWidth))
	d.i64(int64(len(m.in.APs)))
	var extKeys []int
	for i := range m.in.APs {
		v := &m.in.APs[i]
		d.i64(int64(v.ID))
		d.i64(int64(v.Current.Band))
		d.i64(int64(v.Current.Number))
		d.i64(int64(v.Current.Width))
		d.bool(v.Current.DFS)
		d.i64(int64(v.MaxWidth))
		d.bool(v.HasClients)
		d.f64(v.CSAFraction)
		d.f64(v.Load)
		d.f64(v.Utilization)
		d.bool(v.Stale)
		d.bool(v.Pinned)
		for _, w := range spectrum.Widths {
			d.f64(m.widthLoad[i][w])
		}
		d.i64(int64(len(v.Neighbors)))
		for _, id := range v.Neighbors {
			d.i64(int64(id))
		}
		extKeys = extKeys[:0]
		for ch := range m.externalUtil[i] {
			extKeys = append(extKeys, ch)
		}
		sort.Ints(extKeys)
		d.i64(int64(len(extKeys)))
		for _, ch := range extKeys {
			d.i64(int64(ch))
			d.f64(m.externalUtil[i][ch])
		}
	}
	var blockedKeys []int
	for s := range m.blocked {
		if m.blocked[s] {
			blockedKeys = append(blockedKeys, s)
		}
	}
	sort.Ints(blockedKeys)
	d.i64(int64(len(blockedKeys)))
	for _, s := range blockedKeys {
		d.i64(int64(s))
	}
	var noiseKeys []int
	for ch := range m.channelNoise {
		noiseKeys = append(noiseKeys, ch)
	}
	sort.Ints(noiseKeys)
	d.i64(int64(len(noiseKeys)))
	for _, ch := range noiseKeys {
		d.i64(int64(ch))
		d.f64(m.channelNoise[ch])
	}
	return d.h
}

// mirror carries in over to the map shape the way every producer in the
// tree filled those maps: an entry per non-zero value, keyed by the IEEE
// number of the row position it sits at, and nothing for a position the
// band does not have.
func mirror(in Input) mapInput {
	subs := spectrum.Channels(in.Band, spectrum.W20, true)
	byNumber := func(row []float64) map[int]float64 {
		var m map[int]float64
		for i, u := range row {
			if i < len(subs) && u != 0 {
				if m == nil {
					m = map[int]float64{}
				}
				m[subs[i].Number] = u
			}
		}
		return m
	}
	m := mapInput{in: in, channelNoise: byNumber(in.ChannelNoise)}
	for i, c := range subs {
		if in.Blocked&(1<<i) != 0 {
			if m.blocked == nil {
				m.blocked = map[int]bool{}
			}
			m.blocked[c.Number] = true
		}
	}
	for i := range in.APs {
		wl := map[spectrum.Width]float64{}
		for slot, s := range in.APs[i].WidthLoad {
			if s != 0 {
				wl[spectrum.Widths[slot]] = s
			}
		}
		m.widthLoad = append(m.widthLoad, wl)
		m.externalUtil = append(m.externalUtil, byNumber(in.APs[i].ExternalUtil))
	}
	return m
}

// digestInput draws a planning input the way the backend builds one under
// a storm — on any of the three bands, a quarantine mask, trace noise,
// stale and pinned APs, APs with no Current yet, APs no interferer reaches
// (nil row) — and, beyond what the backend builds, invalid entries, rows
// cut short or running past the band and mask bits beyond it, which Digest
// must read as far as the band goes and no further.
func digestInput(r *rand.Rand) Input {
	in := Input{
		Band:     spectrum.Band(r.Intn(3)),
		AllowDFS: r.Intn(2) == 0,
		MaxWidth: spectrum.Widths[r.Intn(4)],
	}
	subs := len(spectrum.Channels(in.Band, spectrum.W20, true))
	currents := spectrum.AllChannels(in.Band, spectrum.W160, true)
	row := func() []float64 {
		if r.Intn(3) == 0 {
			return nil
		}
		n := subs
		if r.Intn(4) == 0 {
			n = r.Intn(subs + 6)
		}
		out := make([]float64, n)
		for k := r.Intn(6); k > 0 && n > 0; k-- {
			out[r.Intn(n)] = r.Float64()
			if r.Intn(16) == 0 { // not yet sanitized
				out[r.Intn(n)] = []float64{math.NaN(), -0.5, 7}[r.Intn(3)]
			}
		}
		return out
	}
	if r.Intn(2) == 0 { // a storm overlay
		for k := 1 + r.Intn(8); k > 0; k-- {
			in.Blocked |= 1 << r.Intn(subs)
		}
		if r.Intn(4) == 0 {
			in.Blocked |= 1 << (subs + r.Intn(64-subs))
		}
		in.ChannelNoise = row()
	}
	n := 1 + r.Intn(12)
	for i := 0; i < n; i++ {
		v := APView{
			ID:           i,
			MaxWidth:     spectrum.Widths[r.Intn(4)],
			HasClients:   r.Intn(2) == 0,
			CSAFraction:  r.Float64(),
			Load:         r.Float64() * 4,
			Utilization:  r.Float64(),
			Stale:        r.Intn(8) == 0,
			Pinned:       r.Intn(10) == 0,
			ExternalUtil: row(),
		}
		if r.Intn(5) != 0 {
			v.Current = currents[r.Intn(len(currents))]
		}
		for k := 1 + r.Intn(3); k > 0; k-- {
			v.WidthLoad[r.Intn(4)] = r.Float64()
		}
		for k := r.Intn(4); k > 0; k-- {
			v.Neighbors = append(v.Neighbors, r.Intn(n))
		}
		in.APs = append(in.APs, v)
	}
	return in
}

// TestDigestMatchesReference is why rows needed no format bump: Digest
// over rows and a mask hashes, bit for bit, what the parent's Digest hashed
// over the number-keyed maps holding the same non-zero entries. The one
// difference is not representable here and is intended: an explicit zero
// (or false) entry — which only a hand-built input ever carried, and which
// never changed the planning problem — was hashed as an entry and is now
// the same as no entry.
func TestDigestMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		in := digestInput(rand.New(rand.NewSource(seed)))
		if got, want := in.Digest(), refDigest(mirror(in)); got != want {
			t.Fatalf("seed %d (%v, %d APs, blocked %#x): Digest %#x, reference over maps %#x",
				seed, in.Band, len(in.APs), in.Blocked, got, want)
		}
	}
}

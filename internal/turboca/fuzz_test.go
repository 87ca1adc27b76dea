package turboca_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/obs"
	"repro/internal/spectrum"
	"repro/internal/turboca"
)

// inputFromBytes deterministically decodes an arbitrary byte string into a
// planning input — the adversarial shapes a degraded control plane can
// hand the planner: duplicate and negative AP IDs, NaN/Inf metrics
// (float fields are raw bit patterns), off-band channels, bogus widths,
// neighbor entries that are no position (negative, or past the last view),
// sub-channel rows shorter and longer than the band, quarantine bits
// beyond it.
func inputFromBytes(data []byte) turboca.Input {
	pos := 0
	u8 := func() byte {
		if pos >= len(data) {
			return 0
		}
		b := data[pos]
		pos++
		return b
	}
	f64 := func() float64 {
		var raw [8]byte
		for i := range raw {
			raw[i] = u8()
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	}
	// row decodes up to two raw entries at positions up to 31: past the end
	// of the 5 GHz row, and far past the 2.4 GHz one.
	row := func() []float64 {
		var out []float64
		for n := int(u8() % 3); n > 0; n-- {
			i := int(u8() % 32)
			if i >= len(out) {
				out = append(out, make([]float64, i+1-len(out))...)
			}
			out[i] = f64()
		}
		return out
	}
	band := spectrum.Band5
	if u8()&1 == 1 {
		band = spectrum.Band2G4
	}
	in := turboca.Input{
		Band:     band,
		AllowDFS: u8()&1 == 1,
		MaxWidth: spectrum.Width(u8() % 6), // includes invalid widths
	}
	nAPs := int(u8() % 24)
	for i := 0; i < nAPs; i++ {
		v := turboca.APView{
			ID: int(int8(u8())), // small range forces duplicates
			Current: spectrum.Channel{
				Band:   spectrum.Band(u8() % 3),
				Number: int(u8()),
				Width:  spectrum.Width(u8() % 6),
				DFS:    u8()&1 == 1,
			},
			MaxWidth:    spectrum.Width(u8() % 6),
			HasClients:  u8()&1 == 1,
			CSAFraction: f64(),
			Load:        f64(),
			Utilization: f64(),
			Stale:       u8()&1 == 1,
			Pinned:      u8()&1 == 1,
		}
		for n := int(u8() % 4); n > 0; n-- {
			v.Neighbors = append(v.Neighbors, int(int8(u8())))
		}
		for n := int(u8() % 3); n > 0; n-- {
			v.WidthLoad[u8()%4] = f64()
		}
		v.ExternalUtil = row()
		in.APs = append(in.APs, v)
	}
	in.Blocked = math.Float64bits(f64())
	in.ChannelNoise = row()
	return in
}

// FuzzSanitize checks the planner's input-hardening contract on arbitrary
// telemetry: Sanitize never panics, leaves the input satisfying every
// documented invariant, is idempotent (a sanitized input needs zero
// further corrections), and the repaired input plans without crashing.
func FuzzSanitize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 2, 255, 0, 36, 3, 1, 1})
	seed := make([]byte, 256)
	r := rand.New(rand.NewSource(7))
	for i := range seed {
		seed[i] = byte(r.Intn(256))
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		// Rows and the mask are read by position; input that skipped
		// Sanitize must not index outside them.
		raw := inputFromBytes(data)
		raw.Digest()
		turboca.NetP(turboca.DefaultConfig(), raw, nil)

		in := inputFromBytes(data)
		if n := in.Sanitize(); n < 0 {
			t.Fatalf("Sanitize returned negative fix count %d", n)
		}
		if n := in.Sanitize(); n != 0 {
			t.Fatalf("Sanitize not idempotent: second pass applied %d fixes\n%+v", n, in)
		}
		subs := len(spectrum.Channels(in.Band, spectrum.W20, true))
		checkRow := func(what string, row []float64) {
			if len(row) > subs {
				t.Fatalf("%s: %d entries on a band of %d sub-channels", what, len(row), subs)
			}
			for i, u := range row {
				if math.IsNaN(u) || u < 0 || u > 1 {
					t.Fatalf("%s: entry %d = %v out of [0,1]", what, i, u)
				}
			}
		}
		checkRow("channel noise", in.ChannelNoise)
		if in.Blocked>>subs != 0 {
			t.Fatalf("Blocked %#x keeps bits beyond the band's %d sub-channels", in.Blocked, subs)
		}
		seen := map[int]bool{}
		for i := range in.APs {
			v := &in.APs[i]
			if seen[v.ID] {
				t.Fatalf("duplicate AP ID %d survived", v.ID)
			}
			seen[v.ID] = true
			if math.IsNaN(v.Load) || v.Load < 0 || v.Load > 64 {
				t.Fatalf("AP %d load %v out of [0,64]", v.ID, v.Load)
			}
			if math.IsNaN(v.Utilization) || v.Utilization < 0 || v.Utilization > 1 {
				t.Fatalf("AP %d utilization %v out of [0,1]", v.ID, v.Utilization)
			}
			if math.IsNaN(v.CSAFraction) || v.CSAFraction < 0 || v.CSAFraction > 1 {
				t.Fatalf("AP %d CSA fraction %v out of [0,1]", v.ID, v.CSAFraction)
			}
			if !v.MaxWidth.Valid() {
				t.Fatalf("AP %d invalid max width %v", v.ID, v.MaxWidth)
			}
			if v.Current != (spectrum.Channel{}) {
				c, ok := spectrum.ChannelAt(v.Current.Band, v.Current.Number, v.Current.Width)
				if !ok || c.Band != in.Band {
					t.Fatalf("AP %d current channel %v survived: not a US channel of %v", v.ID, v.Current, in.Band)
				}
			}
			if v.WidthLoad == ([4]float64{}) {
				t.Fatalf("AP %d empty width-load mix", v.ID)
			}
			for slot, s := range v.WidthLoad {
				if math.IsNaN(s) || math.IsInf(s, 0) || s < 0 {
					t.Fatalf("AP %d width-load entry %d=%v survived", v.ID, slot, s)
				}
			}
			checkRow("external util", v.ExternalUtil)
		}
		for i := range in.APs {
			for _, j := range in.APs[i].Neighbors {
				if j == i {
					t.Fatalf("AP at %d: self-loop neighbor survived", i)
				}
				if j < 0 || j >= len(in.APs) {
					t.Fatalf("AP at %d: neighbor %d, no position among %d views, survived", i, j, len(in.APs))
				}
			}
		}
		// A sanitized input must plan without crashing; keep it cheap.
		if len(in.APs) <= 8 {
			cfg := turboca.DefaultConfig()
			cfg.Runs = 1
			cfg.Workers = 1
			cfg.Obs = obs.NewRegistry().Scope("turboca")
			turboca.RunNBO(cfg, in, rand.New(rand.NewSource(1)), []int{0})
		}
	})
}

package spectrum

import "testing"

var allBands = []Band{Band2G4, Band5, Band6}

// TestTableMatchesFirstPrinciples pins every relation the precomputed
// table stores to its definition, over every channel of all three bands:
// the table is a cache of these definitions, never a second opinion.
func TestTableMatchesFirstPrinciples(t *testing.T) {
	total := 0
	for _, band := range allBands {
		all := AllChannels(band, W160, true)
		lo, hi := BandIDs(band)
		if int(hi-lo) != len(all) {
			t.Fatalf("%v: BandIDs spans %d, AllChannels has %d", band, hi-lo, len(all))
		}
		total += len(all)
		valid20 := map[int]bool{}
		for _, c := range Channels(band, W20, true) {
			valid20[c.Number] = true
		}
		for i, c := range all {
			id, ok := IDOf(c)
			if !ok || id != lo+ID(i) || id.Channel() != c {
				t.Fatalf("%v: IDOf = %d,%v, want %d (AllChannels order)", c, id, ok, lo+ID(i))
			}
			if got, ok := ChannelAt(c.Band, c.Number, c.Width); !ok || got != c {
				t.Fatalf("ChannelAt(%v) = %v,%v", c, got, ok)
			}

			// Sub-20 list: number − 2(n−1) + 4i, n = width/20 (1 at 2.4 GHz).
			n := int(c.Width) / 20
			if band == Band2G4 {
				n = 1
			}
			subs := c.Sub20Numbers()
			if len(subs) != n || cap(subs) != n || len(id.Sub20Numbers()) != n {
				t.Fatalf("%v: sub20 = %v (cap %d), want %d entries with cap == len", c, subs, cap(subs), n)
			}
			dfs := false
			for k, s := range subs {
				if want := c.Number - 2*(n-1) + 4*k; s != want || id.Sub20Numbers()[k] != want {
					t.Fatalf("%v: sub20[%d] = %d, want %d", c, k, s, want)
				}
				if !valid20[s] {
					t.Fatalf("%v covers %d, not a 20 MHz channel of %v", c, s, band)
				}
				// U-NII-2A is ch 52-64, U-NII-2C ch 100-144.
				if band == Band5 && (s >= 52 && s <= 64 || s >= 100 && s <= 144) {
					dfs = true
				}
			}
			if c.DFS != dfs {
				t.Fatalf("%v: DFS = %v, want %v", c, c.DFS, dfs)
			}
			if c.Primary20() != subs[0] {
				t.Fatalf("%v: Primary20 = %d, want %d", c, c.Primary20(), subs[0])
			}

			// Mask intersection ⇔ spectral overlap (MHz arithmetic).
			for _, o := range all {
				oid, _ := IDOf(o)
				if got, want := id.Mask()&oid.Mask() != 0, c.Overlaps(o); got != want {
					t.Fatalf("%v vs %v: masks intersect = %v, Overlaps = %v", c, o, got, want)
				}
			}
			for _, s := range subs {
				if Sub20Mask(band, s)&id.Mask() == 0 {
					t.Fatalf("%v: Sub20Mask(%d) not in its mask", c, s)
				}
			}

			// Bonding links. Wider: twice the width, containing c.
			// Narrower: half the width at the same primary, and the way
			// back up leads to c again.
			if w, ok := Wider(c); ok {
				if w.Width != 2*c.Width || !contains(w.Sub20Numbers(), subs) {
					t.Fatalf("Wider(%v) = %v does not contain it at twice the width", c, w)
				}
				if nw := Narrower(w); nw.Width != c.Width || nw.Primary20() != w.Primary20() {
					t.Fatalf("Narrower(Wider(%v)) = %v, want width %v at primary %d", c, nw, c.Width, w.Primary20())
				} else if (nw == c) != (c.Primary20() == w.Primary20()) {
					t.Fatalf("Narrower(Wider(%v)) = %v: is c exactly when c holds the bond's primary", c, nw)
				}
			} else {
				for _, cand := range Channels(band, 2*c.Width, true) {
					if contains(cand.Sub20Numbers(), subs) {
						t.Fatalf("Wider(%v) missing: %v contains it", c, cand)
					}
				}
			}
			if c.Width == W20 {
				if Narrower(c) != c {
					t.Fatalf("Narrower(%v) = %v, want unchanged", c, Narrower(c))
				}
			} else if back, ok := Wider(Narrower(c)); !ok || back != c {
				t.Fatalf("Wider(Narrower(%v)) = %v,%v", c, back, ok)
			}

			// AtWidth: the Narrower chain below, c itself, the Wider chain
			// above, stopping where the plan does.
			own := c.Width.Slot()
			down, up := c, c
			for s := own; s >= 0; s-- {
				if got := id.AtWidth(s).Channel(); got != down {
					t.Fatalf("%v.AtWidth(%d) = %v, want %v", c, s, got, down)
				}
				// The views below c nest, so the first one another channel
				// overlaps decides the rest (turboca's accTerm relies on it).
				if s < own && id.AtWidth(s).Mask()&^id.AtWidth(s+1).Mask() != 0 {
					t.Fatalf("%v.AtWidth(%d) is not inside AtWidth(%d)", c, s, s+1)
				}
				down = Narrower(down)
			}
			for s := own; s < len(Widths); s++ {
				if got := id.AtWidth(s).Channel(); got != up {
					t.Fatalf("%v.AtWidth(%d) = %v, want %v", c, s, got, up)
				}
				if w, ok := Wider(up); ok {
					up = w
				}
			}
		}
	}
	if total != numChannels {
		t.Fatalf("table holds %d channels, bands sum to %d", numChannels, total)
	}
}

func contains(haystack, needles []int) bool {
	set := map[int]bool{}
	for _, h := range haystack {
		set[h] = true
	}
	for _, n := range needles {
		if !set[n] {
			return false
		}
	}
	return true
}

// TestBondedEqualsWidenLoop: the anchor lookup answers what callers used
// to compute by climbing Wider until the width was reached or the plan ran
// out — for every 20 MHz anchor and width, ch165 and the U-NII-6 gap
// included.
func TestBondedEqualsWidenLoop(t *testing.T) {
	for _, band := range allBands {
		for _, anchor := range Channels(band, W20, true) {
			for _, w := range Widths {
				want := anchor
				for want.Width < w {
					next, ok := Wider(want)
					if !ok {
						break
					}
					want = next
				}
				if got := Bonded(band, anchor.Number, w); got != want {
					t.Fatalf("Bonded(%v, %d, %v) = %v, want %v", band, anchor.Number, w, got, want)
				}
			}
		}
	}
	for _, tc := range []struct {
		band   Band
		anchor int
		w      Width
		number int
		width  Width
	}{
		{Band5, 165, W160, 165, W20}, // never bonds
		{Band5, 48, W80, 42, W80},
		{Band5, 161, W160, 155, W80}, // U-NII-3 has no 160 MHz channel
		{Band6, 117, W160, 117, W20}, // its 40 MHz partner sits in U-NII-6
		{Band6, 121, W160, 123, W40}, // 121-125 bond; no 80 MHz holds them
		{Band6, 93, W160, 79, W160},
		{Band2G4, 6, W80, 6, W20},
		{Band2G4, 3, W20, 3, W20}, // not a US channel: plain 20 MHz at that number
		{Band5, 37, W80, 37, W20},
	} {
		got := Bonded(tc.band, tc.anchor, tc.w)
		if got.Band != tc.band || got.Number != tc.number || got.Width != tc.width {
			t.Errorf("Bonded(%v, %d, %v) = %v, want ch%d@%v", tc.band, tc.anchor, tc.w, got, tc.number, tc.width)
		}
	}
}

// TestOffTableChannels: lookups reject what the plan does not hold, and
// the arithmetic definitions still answer for it.
func TestOffTableChannels(t *testing.T) {
	for _, c := range []Channel{
		{Band: Band5, Number: 37, Width: W20},
		{Band: Band5, Number: 36, Width: W160},
		{Band: Band5, Number: 36, Width: 13},
		{Band: Band5, Number: -4, Width: W20},
		{Band: Band6, Number: 97, Width: W20},
		{Band: Band6, Number: 500, Width: W20},
		{Band: Band2G4, Number: 3, Width: W20},
		{Band: Band(7), Number: 36, Width: W20},
		{Band: Band(-1), Number: 36, Width: W20},
	} {
		if id, ok := IDOf(c); ok || id != None {
			t.Errorf("IDOf(%+v) = %d,%v", c, id, ok)
		}
		if _, ok := Wider(c); ok {
			t.Errorf("Wider(%+v) found a bond", c)
		}
		if Narrower(c) != c {
			t.Errorf("Narrower(%+v) = %v, want unchanged", c, Narrower(c))
		}
	}
	if got := (Channel{Band: Band5, Number: 46, Width: W80}).Sub20Numbers(); len(got) != 4 || got[0] != 40 || got[3] != 52 {
		t.Errorf("off-table sub20 by formula = %v", got)
	}
	if Channels(Band(7), W20, true) != nil || AllChannels(Band(-1), W160, true) != nil || AllChannels(Band5, 0, true) != nil {
		t.Error("unknown band or zero width must list nothing")
	}
	if Sub20Mask(Band5, 37) != 0 {
		t.Error("Sub20Mask of a non-channel")
	}
}

// TestViewsDoNotAlias: every slice handed out has cap == len, so an
// append copies instead of writing into the table behind it.
func TestViewsDoNotAlias(t *testing.T) {
	for _, band := range allBands {
		for _, dfs := range []bool{true, false} {
			for _, w := range Widths {
				v := Channels(band, w, dfs)
				if cap(v) != len(v) {
					t.Fatalf("Channels(%v, %v, %v): cap %d != len %d", band, w, dfs, cap(v), len(v))
				}
				a := AllChannels(band, w, dfs)
				if cap(a) != len(a) {
					t.Fatalf("AllChannels(%v, %v, %v): cap %d != len %d", band, w, dfs, cap(a), len(a))
				}
				_ = append(a, Channel{Number: -1})
				_ = append(v, Channel{Number: -1})
			}
		}
	}
	c, _ := ChannelAt(Band5, 38, W40)
	_ = append(c.Sub20Numbers(), -1)
	TestTableMatchesFirstPrinciples(t)
}

var (
	sinkChans []Channel
	sinkChan  Channel
	sinkInts  []int
	sinkInt   int
)

// TestLookupsDoNotAllocate: every accessor is a read of the table.
func TestLookupsDoNotAllocate(t *testing.T) {
	c80, _ := ChannelAt(Band5, 106, W80)
	for name, fn := range map[string]func(){
		"Channels":       func() { sinkChans = Channels(Band5, W40, true) },
		"Channels/noDFS": func() { sinkChans = Channels(Band5, W20, false) },
		"AllChannels":    func() { sinkChans = AllChannels(Band6, W80, false) },
		"Wider":          func() { sinkChan, _ = Wider(c80) },
		"Narrower":       func() { sinkChan = Narrower(c80) },
		"ChannelAt":      func() { sinkChan, _ = ChannelAt(Band6, 143, W160) },
		"Sub20Numbers":   func() { sinkInts = c80.Sub20Numbers() },
		"Primary20":      func() { sinkInt = c80.Primary20() },
		"Bonded":         func() { sinkChan = Bonded(Band5, 108, W80) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

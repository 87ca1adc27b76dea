package topo

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/spectrum"
)

func TestGenerateBasics(t *testing.T) {
	sc := Generate(ScenarioOptions{Seed: 1, Name: "t", APCount: 50, AreaW: 200, AreaH: 100, Grid: true, Interferers: 5})
	if len(sc.APs) != 50 || len(sc.Interferers) != 5 {
		t.Fatalf("%v", sc)
	}
	for _, ap := range sc.APs {
		if ap.Pos.X < 0 || ap.Pos.X > 200 || ap.Pos.Y < 0 || ap.Pos.Y > 100 {
			t.Fatalf("AP out of bounds: %+v", ap.Pos)
		}
		if ap.Channel.Width == 0 || ap.Channel24.Width == 0 {
			t.Fatalf("AP %d missing channels", ap.ID)
		}
		if len(ap.Clients) == 0 {
			t.Fatalf("AP %d has no clients", ap.ID)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := Office(7), Office(7)
	if len(a.APs) != len(b.APs) {
		t.Fatal("nondeterministic AP count")
	}
	for i := range a.APs {
		if a.APs[i].Pos != b.APs[i].Pos || a.APs[i].BaseDemandMbps != b.APs[i].BaseDemandMbps {
			t.Fatalf("AP %d differs across same-seed generations", i)
		}
	}
	c := Office(8)
	same := true
	for i := range a.APs {
		if a.APs[i].Pos != c.APs[i].Pos {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical scenario")
	}
}

func TestNeighborsSymmetricAndBounded(t *testing.T) {
	sc := Office(3)
	for _, ap := range sc.APs {
		for _, n := range sc.NeighborsOf(ap) {
			if n.AP.ID == ap.ID {
				t.Fatal("self neighbor")
			}
			if ap.Pos.Dist(n.AP.Pos) > sc.CSRangeM {
				t.Fatal("neighbor beyond CS range")
			}
			// Symmetry: if A hears B, B hears A (same path loss model).
			found := false
			for _, back := range sc.NeighborsOf(n.AP) {
				if back.AP.ID == ap.ID {
					found = true
					break
				}
			}
			if !found {
				t.Fatalf("asymmetric neighbor relation %d<->%d", ap.ID, n.AP.ID)
			}
		}
	}
}

func TestLoadCurves(t *testing.T) {
	for name, curve := range map[string]LoadCurve{"office": OfficeLoad, "museum": MuseumLoad, "campus": CampusLoad} {
		peakSeen := 0.0
		for h := sim.Time(0); h < sim.Day; h += 10 * sim.Minute {
			v := curve(h)
			if v < 0 || v > 1 {
				t.Fatalf("%s load out of range at %v: %f", name, h, v)
			}
			if v > peakSeen {
				peakSeen = v
			}
		}
		// Night must be quieter than the daily peak.
		night := curve(3 * sim.Hour)
		if night >= peakSeen/2 {
			t.Fatalf("%s: night load %f vs peak %f", name, night, peakSeen)
		}
		// Curves repeat daily.
		if curve(10*sim.Hour) != curve(sim.Day+10*sim.Hour) {
			t.Fatalf("%s not periodic", name)
		}
	}
}

func TestOfficeLoadAfternoonBurst(t *testing.T) {
	// Fig 6's 2 pm burst: load at 13:30-14:30 exceeds the lunch dip.
	if OfficeLoad(14*sim.Hour) <= OfficeLoad(12*sim.Hour+30*sim.Minute) {
		t.Fatal("missing afternoon burst")
	}
}

func TestDemandAtJitterAndShape(t *testing.T) {
	sc := Museum(4)
	ap := sc.APs[0]
	peak := sc.DemandAt(ap, 13*sim.Hour)
	night := sc.DemandAt(ap, 3*sim.Hour)
	if peak <= night {
		t.Fatalf("peak %f <= night %f", peak, night)
	}
	if peak > ap.BaseDemandMbps {
		t.Fatalf("demand exceeds base: %f > %f", peak, ap.BaseDemandMbps)
	}
}

func TestExternalUtilization(t *testing.T) {
	sc := &Scenario{
		Interferers: []*Interferer{{
			Pos: Point{X: 0, Y: 0}, Band: spectrum.Band5,
			Chan20: 36, Width: spectrum.W20, Duty: 0.6, RangeM: 30,
		}},
	}
	// On top of the interferer: ~full duty.
	if got := sc.ExternalUtilization(Point{0, 0}, spectrum.Band5, 36); got < 0.55 {
		t.Fatalf("at source: %f", got)
	}
	// Out of range: zero.
	if got := sc.ExternalUtilization(Point{100, 0}, spectrum.Band5, 36); got != 0 {
		t.Fatalf("out of range: %f", got)
	}
	// Different channel: zero.
	if got := sc.ExternalUtilization(Point{0, 0}, spectrum.Band5, 149); got != 0 {
		t.Fatalf("other channel: %f", got)
	}
	// Wrong band: zero.
	if got := sc.ExternalUtilization(Point{0, 0}, spectrum.Band2G4, 1); got != 0 {
		t.Fatalf("other band: %f", got)
	}
}

func TestWideInterfererCoversSubchannels(t *testing.T) {
	sc := &Scenario{
		Interferers: []*Interferer{{
			Pos: Point{X: 0, Y: 0}, Band: spectrum.Band5,
			Chan20: 36, Width: spectrum.W80, Duty: 0.5, RangeM: 30,
		}},
	}
	// An 80 MHz interferer anchored at 36 covers 36..48.
	for _, ch := range []int{36, 40, 44, 48} {
		if sc.ExternalUtilization(Point{1, 1}, spectrum.Band5, ch) == 0 {
			t.Fatalf("80 MHz interferer misses ch%d", ch)
		}
	}
	if sc.ExternalUtilization(Point{1, 1}, spectrum.Band5, 52) != 0 {
		t.Fatal("interferer leaks past its bandwidth")
	}
}

// TestForeign24InterfererOverlapsNeighbours: a foreign 2.4 GHz AP sits on
// any of channels 1-11, most of which are not in the 1/6/11 plan; its
// 20 MHz still spills onto the plan channels within 4 numbers of it.
func TestForeign24InterfererOverlapsNeighbours(t *testing.T) {
	sc := &Scenario{
		Interferers: []*Interferer{{
			Pos: Point{X: 0, Y: 0}, Band: spectrum.Band2G4,
			Chan20: 3, Width: spectrum.W20, Duty: 0.5, RangeM: 30,
		}},
	}
	for ch, want := range map[int]bool{1: true, 6: true, 11: false} {
		if got := sc.ExternalUtilization(Point{1, 1}, spectrum.Band2G4, ch) > 0; got != want {
			t.Fatalf("ch3 interferer on ch%d: heard=%v, want %v", ch, got, want)
		}
	}
}

// TestExternalUtilizationDoesNotAllocate: the planner-input build asks
// this once per AP per 20 MHz channel, every pass.
func TestExternalUtilizationDoesNotAllocate(t *testing.T) {
	sc := Office(1)
	pos := sc.APs[0].Pos
	var sink float64
	if n := testing.AllocsPerRun(100, func() {
		sink += sc.ExternalUtilization(pos, spectrum.Band5, 44)
		sink += sc.ExternalUtilization(pos, spectrum.Band2G4, 6)
	}); n != 0 {
		t.Fatalf("ExternalUtilization allocates %v times per call pair", n)
	}
}

func TestBuiltinScenarioScales(t *testing.T) {
	if n := len(Campus(1).APs); n != 600 {
		t.Fatalf("campus has %d APs", n)
	}
	if n := len(Museum(1).APs); n != 300 {
		t.Fatalf("museum has %d APs", n)
	}
	if n := len(Office(1).APs); n != 33 {
		t.Fatalf("office has %d APs", n)
	}
	if Campus(1).UplinkMbps == 0 {
		t.Fatal("campus must be uplink-capped (Table 2)")
	}
	if Museum(1).UplinkMbps != 0 {
		t.Fatal("museum must not be uplink-capped (Table 2)")
	}
}

// TestDenseScenarioDensity: MDU and Stadium are the hostile-density
// scenarios — roughly 10× the campus AP density — and keep the Table 2
// uplink split (MDU uplink-capped like UNet, Stadium unconstrained like
// MNet).
func TestDenseScenarioDensity(t *testing.T) {
	density := func(sc *Scenario) float64 {
		var maxX, maxY float64
		for _, ap := range sc.APs {
			if ap.Pos.X > maxX {
				maxX = ap.Pos.X
			}
			if ap.Pos.Y > maxY {
				maxY = ap.Pos.Y
			}
		}
		return maxX * maxY / float64(len(sc.APs)) // m² per AP
	}
	campus := density(Campus(1))
	for _, tc := range []struct {
		name string
		sc   *Scenario
		aps  int
	}{
		{"mdu", MDU(1), 200},
		{"stadium", Stadium(1), 400},
	} {
		if n := len(tc.sc.APs); n != tc.aps {
			t.Fatalf("%s has %d APs, want %d", tc.name, n, tc.aps)
		}
		d := density(tc.sc)
		if ratio := campus / d; ratio < 7 || ratio > 14 {
			t.Fatalf("%s density is %.1fx campus (%.0f vs %.0f m²/AP), want ~10x",
				tc.name, ratio, campus, d)
		}
	}
	if MDU(1).UplinkMbps == 0 {
		t.Fatal("MDU must be uplink-capped")
	}
	if Stadium(1).UplinkMbps != 0 {
		t.Fatal("stadium must not be uplink-capped")
	}
	// Dense scenarios are still deterministic per seed.
	a, b := MDU(7), MDU(7)
	for i := range a.APs {
		if a.APs[i].Pos != b.APs[i].Pos {
			t.Fatal("MDU not deterministic per seed")
		}
	}
}

func TestClientCapabilityMix(t *testing.T) {
	sc := Generate(ScenarioOptions{Seed: 9, APCount: 200, MeanClients: 10})
	var total, wide, twoSS int
	for _, ap := range sc.APs {
		for _, c := range ap.Clients {
			total++
			if c.MaxWidth >= spectrum.W80 {
				wide++
			}
			if c.NSS >= 2 {
				twoSS++
			}
		}
	}
	wf := float64(wide) / float64(total)
	sf := float64(twoSS) / float64(total)
	if wf < 0.35 || wf > 0.60 {
		t.Fatalf("80MHz-capable fraction %f, want ~0.46", wf)
	}
	if sf < 0.30 || sf > 0.60 {
		t.Fatalf("2SS fraction %f", sf)
	}
}

func TestPointDist(t *testing.T) {
	if d := (Point{0, 0}).Dist(Point{3, 4}); d != 5 {
		t.Fatalf("dist = %f", d)
	}
}

func TestNewScenarioKinds(t *testing.T) {
	if n := len(School(1).APs); n != 120 {
		t.Fatalf("school has %d APs", n)
	}
	if n := len(Hotel(1).APs); n != 150 {
		t.Fatalf("hotel has %d APs", n)
	}
	// School load spikes during passing periods vs mid-class.
	midClass := SchoolLoad(8*sim.Hour + 20*sim.Minute)
	passing := SchoolLoad(8*sim.Hour + 55*sim.Minute)
	if passing <= midClass {
		t.Fatalf("passing %f <= mid-class %f", passing, midClass)
	}
	if SchoolLoad(2*sim.Hour) > 0.1 {
		t.Fatal("school busy at 2 am")
	}
	// Hotel peaks in the evening, not midday.
	if HotelLoad(20*sim.Hour) <= HotelLoad(13*sim.Hour) {
		t.Fatal("hotel peak not in the evening")
	}
}

func TestRenderPlan(t *testing.T) {
	sc := Office(5)
	out := sc.RenderPlan(60, 16)
	if !strings.Contains(out, "legend:") {
		t.Fatal("no legend")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 17 { // 16 rows + legend
		t.Fatalf("rendered %d lines", len(lines))
	}
	// Every AP glyph appears somewhere (33 APs; collisions on cells are
	// possible, so just require a good number of non-dot glyphs).
	glyphs := 0
	for _, line := range lines[:16] {
		for _, ch := range line {
			if ch != '.' {
				glyphs++
			}
		}
	}
	if glyphs < 20 {
		t.Fatalf("only %d APs rendered", glyphs)
	}
}

// TestStaticPictureByPosition: the interference graph and the external
// rows are tables indexed by AP position, which is the AP's ID — every
// row is the definition evaluated at that AP, and a scenario whose IDs are
// not positions is refused when either table is built, by index.
func TestStaticPictureByPosition(t *testing.T) {
	sc := Office(5)
	for _, band := range []spectrum.Band{spectrum.Band5, spectrum.Band2G4} {
		subs := spectrum.Channels(band, spectrum.W20, true)
		for _, ap := range sc.APs {
			row := sc.ExternalRow(ap, band)
			for i, c := range subs {
				want := sc.ExternalUtilization(ap.Pos, band, c.Number)
				if got := rowAt(row, i); got != want {
					t.Fatalf("AP %d %v ch%d: row has %v, definition %v", ap.ID, band, c.Number, got, want)
				}
			}
		}
	}
	for _, build := range []func(*Scenario){
		func(s *Scenario) { s.NeighborsOf(s.APs[0]) },
		func(s *Scenario) { s.ExternalRow(s.APs[0], spectrum.Band5) },
	} {
		bad := Office(5)
		bad.APs[3], bad.APs[4] = bad.APs[4], bad.APs[3]
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "APs[3].ID = 4") {
					t.Fatalf("IDs out of position: recovered %q, want a panic naming APs[3]", msg)
				}
			}()
			build(bad)
		}()
	}
}

func rowAt(row []float64, i int) float64 {
	if row == nil {
		return 0
	}
	return row[i]
}

package fleet

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/spectrum"
)

func small() *Fleet { return Generate(Options{Seed: 5, Networks: 300}) }

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
	}
}

// TestCapabilityCohorts pins the Fig 1 calibration: the generated client
// population must reproduce the paper's 2015 -> 2017 shifts.
func TestCapabilityCohorts(t *testing.T) {
	const n = 60000
	c15 := CapabilityReport(Cohort2015, n, 1)
	c17 := CapabilityReport(Cohort2017, n, 2)
	frac := func(c interface{ Count(string) int }, k string) float64 {
		return float64(c.Count(k)) / float64(n)
	}
	within(t, "2015 802.11ac", frac(c15, "802.11ac"), 0.18, 0.02)
	within(t, "2017 802.11ac", frac(c17, "802.11ac"), 0.46, 0.02)
	within(t, "2015 2.4-only", frac(c15, "2.4GHz-only"), 0.41, 0.02)
	within(t, "2017 2.4-only", frac(c17, "2.4GHz-only"), 0.40, 0.02)
	within(t, "2015 >=2SS", frac(c15, ">=2SS"), 0.19, 0.02)
	within(t, "2017 >=2SS", frac(c17, ">=2SS"), 0.37, 0.02)
	if frac(c17, ">=40MHz") <= frac(c15, ">=40MHz") {
		t.Error("40 MHz capability did not grow")
	}
}

// TestCapabilityReportKeys holds Fig 1's tally to its rule over every
// capability set CapabilityModel.Sample can draw: which keys one client
// adds. A 2.4 GHz-only client is never VHT and stays at 20 MHz, and only a
// VHT client draws 80 MHz; an 802.11ac client always counts as >=40 MHz.
func TestCapabilityReportKeys(t *testing.T) {
	const (
		w20, w40, w80 = spectrum.W20, spectrum.W40, spectrum.W80
		g24, ac, ss2  = "2.4GHz-only", "802.11ac", ">=2SS"
		mhz40         = ">=40MHz"
	)
	cases := []struct {
		fiveGHz, vht bool
		width        spectrum.Width
		nss          int
		want         []string
	}{
		{false, false, w20, 1, []string{g24}},
		{false, false, w20, 2, []string{g24, ss2}},
		{false, false, w20, 3, []string{g24, ss2}},
		{true, false, w20, 1, nil},
		{true, false, w20, 2, []string{ss2}},
		{true, false, w20, 3, []string{ss2}},
		{true, false, w40, 1, []string{mhz40}},
		{true, false, w40, 2, []string{mhz40, ss2}},
		{true, false, w40, 3, []string{mhz40, ss2}},
		{true, true, w20, 1, []string{ac, mhz40}},
		{true, true, w20, 2, []string{ac, mhz40, ss2}},
		{true, true, w20, 3, []string{ac, mhz40, ss2}},
		{true, true, w40, 1, []string{ac, mhz40}},
		{true, true, w40, 2, []string{ac, mhz40, ss2}},
		{true, true, w40, 3, []string{ac, mhz40, ss2}},
		{true, true, w80, 1, []string{ac, mhz40}},
		{true, true, w80, 2, []string{ac, mhz40, ss2}},
		{true, true, w80, 3, []string{ac, mhz40, ss2}},
	}
	for _, tc := range cases {
		caps := ClientCaps{Supports5GHz: tc.fiveGHz, VHT: tc.vht, MaxWidth: tc.width, NSS: tc.nss}
		// A cohort whose every probability is 0 or 1 draws caps and
		// nothing else.
		m := CapabilityModel{P24Only: 1}
		if tc.fiveGHz {
			m.P24Only = 0
		}
		if tc.vht {
			m.PVHT = 1
		}
		if tc.width >= w40 {
			m.P40MHz = 1
		}
		if tc.width >= w80 {
			m.P80MHz = 1
		}
		switch tc.nss {
		case 2:
			m.P2SS = 1
		case 3:
			m.P3SS = 1
		}
		if got := m.Sample(rand.New(rand.NewSource(1))); got != caps {
			t.Fatalf("cohort for %+v draws %+v", caps, got)
		}
		want := append([]string{"all"}, tc.want...)
		sort.Strings(want)
		if got := CapabilityReport(m, 1, 1).Keys(); !reflect.DeepEqual(got, want) {
			t.Errorf("%+v: keys %v, want %v", caps, got, want)
		}
	}
}

// TestUtilizationMedians pins Fig 2: ~20% median on 2.4 GHz, ~3% on 5 GHz
// for networks with >= 10 APs.
func TestUtilizationMedians(t *testing.T) {
	f := small()
	u24 := f.UtilizationCDF(spectrum.Band2G4, 10)
	u5 := f.UtilizationCDF(spectrum.Band5, 10)
	within(t, "2.4 GHz median util", u24.Median(), 0.20, 0.06)
	within(t, "5 GHz median util", u5.Median(), 0.03, 0.02)
	if u5.Median() >= u24.Median() {
		t.Error("5 GHz busier than 2.4 GHz")
	}
}

// TestInterfererShape pins Fig 3's orderings: 2.4 GHz is more crowded
// than 5 GHz at the median and the p90 tail is heavy.
func TestInterfererShape(t *testing.T) {
	f := small()
	i24 := f.InterfererCDF(spectrum.Band2G4, 10)
	i5 := f.InterfererCDF(spectrum.Band5, 10)
	if i24.Median() < i5.Median() {
		t.Errorf("2.4 median %f < 5 GHz median %f", i24.Median(), i5.Median())
	}
	within(t, "2.4 median interferers", i24.Median(), 7, 4)
	within(t, "5 median interferers", i5.Median(), 5, 3)
	if i24.Percentile(90) < 15 {
		t.Errorf("2.4 p90 = %f, want heavy tail (~29)", i24.Percentile(90))
	}
}

func TestClientDensityBuckets(t *testing.T) {
	f := small()
	b := f.ClientDensityBuckets(10)
	within(t, "<=5 bucket", b.Fraction("<=5"), 0.33, 0.05)
	within(t, "6-10 bucket", b.Fraction("6-10"), 0.22, 0.05)
	within(t, "11-20 bucket", b.Fraction("11-20"), 0.20, 0.05)
	within(t, ">=21 bucket", b.Fraction(">=21"), 0.25, 0.05)
	if max := f.MaxClientDensity(); max > 338 {
		t.Errorf("max clients %d exceeds the paper's cap", max)
	}
}

// TestWidthTable pins Table 1: ~66%/63% at 80 MHz, with small networks
// keeping wide channels more often than large ones.
func TestWidthTable(t *testing.T) {
	f := small()
	all, large := f.WidthTable()
	within(t, "all 80MHz", all.Fraction("80MHz"), 0.66, 0.05)
	within(t, "large 80MHz", large.Fraction("80MHz"), 0.633, 0.04)
	within(t, "large 20MHz", large.Fraction("20MHz"), 0.173, 0.04)
	if all.Fraction("80MHz") < large.Fraction("80MHz") {
		t.Error("Table 1 ordering inverted")
	}
}

func TestStandardAndChainMix(t *testing.T) {
	f := small()
	var ac, twoChain, total int
	for _, net := range f.Networks {
		for _, ap := range net.APs {
			total++
			if ap.Standard == "ac" {
				ac++
			}
			if ap.Chains == 2 {
				twoChain++
			}
		}
	}
	within(t, "802.11ac APs", float64(ac)/float64(total), 0.52, 0.03)
	within(t, "2-chain APs", float64(twoChain)/float64(total), 0.73, 0.03)
}

// TestBitrateDistribution pins Fig 5's bulk: most achieved rates land in
// the 128-512 Mbps region.
func TestBitrateDistribution(t *testing.T) {
	f := small()
	s := f.BitrateDistribution(20000)
	med := s.Median()
	if med < 130 || med > 450 {
		t.Fatalf("median bitrate %f outside Fig 5's bulk", med)
	}
	if s.Max() > 1733.4 {
		t.Fatalf("impossible rate %f", s.Max())
	}
	if s.Min() <= 0 {
		t.Fatalf("nonpositive rate %f", s.Min())
	}
}

func TestChannelsAreValidUS(t *testing.T) {
	f := small()
	valid := map[int]bool{}
	for _, w := range spectrum.Widths {
		for _, c := range spectrum.Channels(spectrum.Band5, w, true) {
			valid[c.Number] = true
		}
	}
	for _, net := range f.Networks {
		for _, ap := range net.APs {
			if !valid[ap.Channel5.Number] {
				t.Fatalf("invalid 5 GHz channel %v", ap.Channel5)
			}
			if ap.Channel24.Number < 1 || ap.Channel24.Number > 11 {
				t.Fatalf("invalid 2.4 GHz channel %v", ap.Channel24)
			}
		}
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a := Generate(Options{Seed: 42, Networks: 50})
	b := Generate(Options{Seed: 42, Networks: 50})
	if a.APCount() != b.APCount() {
		t.Fatal("same seed, different AP count")
	}
	for i := range a.Networks {
		if len(a.Networks[i].Foreign) != len(b.Networks[i].Foreign) {
			t.Fatal("same seed, different foreign APs")
		}
	}
}

func TestLargeNetworksFilter(t *testing.T) {
	f := small()
	for _, net := range f.LargeNetworks(10) {
		if len(net.APs) < 10 {
			t.Fatalf("network with %d APs in >=10 filter", len(net.APs))
		}
	}
}

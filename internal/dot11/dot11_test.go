package dot11

import (
	"testing"
	"testing/quick"

	"repro/internal/spectrum"
)

func TestIEsRoundTrip(t *testing.T) {
	ies := []IE{
		{ID: IESSID, Body: []byte("corp")},
		{ID: IEHTCapabilities, Body: []byte{36}},
	}
	b := EncodeIEs(nil, ies)
	got, err := DecodeIEs(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || string(got[0].Body) != "corp" || got[1].Body[0] != 36 {
		t.Fatalf("ies: %+v", got)
	}
	if _, err := DecodeIEs(b[:3]); err != ErrTruncated {
		t.Fatal("truncated IE accepted")
	}
	if _, ok := Find(got, IEVHTCapabilities); ok {
		t.Fatal("phantom VHT capabilities")
	}
}

func TestCapabilityRoundTrip(t *testing.T) {
	cases := []Capabilities{
		{HT: true, MaxWidth: spectrum.W20, NSS: 1},
		{HT: true, MaxWidth: spectrum.W40, NSS: 2, SGI: true},
		{HT: true, VHT: true, MaxWidth: spectrum.W80, NSS: 3, SGI: true},
		{HT: true, VHT: true, MaxWidth: spectrum.W160, NSS: 4},
	}
	// Every capability set fleet.CapabilityModel.Sample can draw, as
	// fleet.CapabilityReport encodes it (HT always, no SGI): VHT or not,
	// 20 or 40 MHz (and 80 MHz with VHT), one to three streams.
	for _, vht := range []bool{false, true} {
		widths := []spectrum.Width{spectrum.W20, spectrum.W40}
		if vht {
			widths = append(widths, spectrum.W80)
		}
		for _, w := range widths {
			for nss := 1; nss <= 3; nss++ {
				cases = append(cases, Capabilities{HT: true, VHT: vht, MaxWidth: w, NSS: nss})
			}
		}
	}
	for _, c := range cases {
		want := c
		// 80 MHz is mandatory in 802.11ac: the VHT capabilities element
		// can say 160 MHz or nothing more, so a VHT set narrower than
		// 80 MHz reads back as 80 MHz.
		if c.VHT && c.MaxWidth < spectrum.W80 {
			want.MaxWidth = spectrum.W80
		}
		got := ParseCapabilities(CapabilityIEs(c))
		if got != want {
			t.Errorf("round trip of %+v: got %+v want %+v", c, got, want)
		}
		ar, err := DecodeAssocRequest(EncodeAssocRequest(AssocRequest{SSID: "fleet", Caps: c}))
		if err != nil {
			t.Fatalf("association request with %+v: %v", c, err)
		}
		if ar.Caps != want {
			t.Errorf("association request with %+v: got %+v want %+v", c, ar.Caps, want)
		}
	}
	// No HT element at all: a legacy client.
	legacy := ParseCapabilities(nil)
	if legacy.HT || legacy.VHT || legacy.MaxWidth != spectrum.W20 || legacy.NSS != 1 {
		t.Fatalf("legacy parse: %+v", legacy)
	}
}

func TestAssocRequestRoundTrip(t *testing.T) {
	ar := AssocRequest{
		CapInfo: 0x21, Interval: 10, SSID: "corp",
		Caps: Capabilities{HT: true, VHT: true, MaxWidth: spectrum.W80, NSS: 2, SGI: true},
	}
	got, err := DecodeAssocRequest(EncodeAssocRequest(ar))
	if err != nil {
		t.Fatal(err)
	}
	if got != ar {
		t.Fatalf("assoc: got %+v want %+v", got, ar)
	}
	if _, err := DecodeAssocRequest([]byte{0x21}); err != ErrTruncated {
		t.Fatal("truncated association request accepted")
	}
}

// Property: the decoders never panic on arbitrary bytes.
func TestQuickDecodersRobust(t *testing.T) {
	f := func(b []byte) bool {
		DecodeIEs(b)
		DecodeAssocRequest(b)
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

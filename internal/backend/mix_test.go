package backend

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/fleet"
	"repro/internal/spectrum"
	"repro/internal/topo"
)

// The per-client readers of a client list as they were while an AP could
// carry one: the reference topo.MixOf is held to.

// refWidthLoad is load(b) by walking the clients: total usage first, then
// each client's share into its width's slot, both in list order.
func refWidthLoad(clients []topo.ClientInfo) [4]float64 {
	var out [4]float64
	total := 0.0
	for _, c := range clients {
		total += c.UsageWeight
	}
	if total == 0 {
		return [4]float64{1}
	}
	for _, c := range clients {
		if slot := c.MaxWidth.Slot(); slot >= 0 {
			out[slot] += c.UsageWeight / total
		}
	}
	return out
}

// refCSAFraction is the share of clients honoring CSAs, 1 with none.
func refCSAFraction(clients []topo.ClientInfo) float64 {
	if len(clients) == 0 {
		return 1
	}
	n := 0
	for _, c := range clients {
		if c.SupportsCSA {
			n++
		}
	}
	return float64(n) / float64(len(clients))
}

// refDeviceClasses is the disruption model's walk: CSA-capable clients,
// then the non-CSA ones split mobile (even index) and laptop (odd).
func refDeviceClasses(clients []topo.ClientInfo) (csa, mobile, laptop int) {
	for i, c := range clients {
		switch {
		case c.SupportsCSA:
			csa++
		case i%2 == 0:
			mobile++
		default:
			laptop++
		}
	}
	return csa, mobile, laptop
}

// TestMixMatchesClientWalk holds topo.MixOf to the per-client readers over
// 600 random client lists: the width mix bit for bit, the CSA fraction and
// the device-class split exactly. The lists include empty ones, all-zero
// usage, a single width, widths with no slot, and 48-client draws shaped
// like fleetd's (the fleet capability cohort, clipped to 40 MHz without VHT).
func TestMixMatchesClientWalk(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	widths := []spectrum.Width{spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160, 0, 13}
	for k := 0; k < 600; k++ {
		var clients []topo.ClientInfo
		switch k % 6 {
		case 0: // empty, then short lists
			for n := k / 6 % 4; n > 0; n-- {
				clients = append(clients, topo.ClientInfo{MaxWidth: widths[r.Intn(len(widths))], SupportsCSA: r.Intn(2) == 0, UsageWeight: r.Float64()})
			}
		case 1: // no usage at all
			for n := 1 + r.Intn(20); n > 0; n-- {
				clients = append(clients, topo.ClientInfo{MaxWidth: widths[r.Intn(4)], SupportsCSA: r.Intn(3) == 0})
			}
		case 2: // one width
			w := widths[r.Intn(len(widths))]
			for n := 1 + r.Intn(30); n > 0; n-- {
				clients = append(clients, topo.ClientInfo{MaxWidth: w, SupportsCSA: r.Intn(2) == 0, UsageWeight: 0.2 + r.ExpFloat64()})
			}
		case 3, 4: // fleet-shaped, 48 clients
			for n := 0; n < 48; n++ {
				c := fleet.Cohort2017.Sample(r)
				w := c.MaxWidth
				if !c.VHT && w > spectrum.W40 {
					w = spectrum.W40
				}
				clients = append(clients, topo.ClientInfo{MaxWidth: w, NSS: c.NSS, SupportsCSA: r.Float64() < 0.7, UsageWeight: 0.2 + r.ExpFloat64()})
			}
		default: // anything, some weights zero
			for n := 1 + r.Intn(60); n > 0; n-- {
				u := r.ExpFloat64() * math.Pow(10, float64(r.Intn(7)-3))
				if r.Intn(5) == 0 {
					u = 0
				}
				clients = append(clients, topo.ClientInfo{MaxWidth: widths[r.Intn(len(widths))], SupportsCSA: r.Intn(2) == 0, UsageWeight: u})
			}
		}

		m := topo.MixOf(clients)
		want := refWidthLoad(clients)
		for s := range want {
			if math.Float64bits(m.WidthLoad[s]) != math.Float64bits(want[s]) {
				t.Fatalf("list %d (%d clients): WidthLoad %v, client walk %v", k, len(clients), m.WidthLoad, want)
			}
		}
		if got, want := csaFraction(&m), refCSAFraction(clients); got != want {
			t.Fatalf("list %d: CSA fraction %v, client walk %v", k, got, want)
		}
		csa, mobile, laptop := refDeviceClasses(clients)
		if m.Count != len(clients) || m.CSACount != csa || m.NonCSAMobile != mobile || m.NonCSALaptop != laptop {
			t.Fatalf("list %d: mix %+v, client walk %d clients csa=%d mobile=%d laptop=%d", k, m, len(clients), csa, mobile, laptop)
		}
	}
}

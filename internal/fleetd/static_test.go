package fleetd

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/phy"
	"repro/internal/spectrum"
)

// TestFleetNeighborTable holds the neighbor table of the scenarios fleetd
// builds to the graph's definition — every other AP in carrier-sense range
// and above the carrier-sense threshold, in position order — checks that
// appending to a row leaves the next row as it was, and that both bands'
// planner inputs of a network's backend alias the scenario's rows rather
// than copying them.
func TestFleetNeighborTable(t *testing.T) {
	c := New(Config{Seed: 20170811, Obs: obs.NewRegistry()})
	if err := c.AddFleet(fleet.Generate(fleet.Options{Seed: 20170811, Networks: 8, MaxAPs: 48})); err != nil {
		t.Fatal(err)
	}
	edges := 0
	for _, ns := range c.nets() {
		ns.ensureBuilt()
		sc := ns.sc
		in5, in24 := ns.be.PlannerInput(spectrum.Band5), ns.be.PlannerInput(spectrum.Band2G4)
		for i, ap := range sc.APs {
			var want []int
			for j, other := range sc.APs {
				if j != i && ap.Pos.Dist(other.Pos) <= sc.CSRangeM && sc.LinkRSSIDBm(ap, other) >= phy.CarrierSenseThresholdDBm {
					want = append(want, j)
				}
			}
			row := sc.NeighborsOf(ap)
			if !slices.Equal(row, want) {
				t.Fatalf("network %d AP %d: row %v, definition %v", ns.id, i, row, want)
			}
			if len(row) == 0 {
				continue
			}
			edges += len(row)
			for _, in := range []*[]int{&in5.APs[i].Neighbors, &in24.APs[i].Neighbors} {
				if got := *in; len(got) != len(row) || &got[0] != &row[0] {
					t.Fatalf("network %d AP %d: a planner input holds a copy of the neighbor row", ns.id, i)
				}
			}
			if i+1 < len(sc.APs) {
				next := slices.Clone(sc.NeighborsOf(sc.APs[i+1]))
				_ = append(row, -1)
				if got := sc.NeighborsOf(sc.APs[i+1]); !slices.Equal(got, next) {
					t.Fatalf("network %d: appending to AP %d's row rewrote AP %d's: %v, was %v", ns.id, i, i+1, got, next)
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no AP of the fleet hears another; the table is not being checked")
	}
}

// fleetSetupAllocCeiling bounds the heap allocations of building the 64
// networks of the fleet_converge shape (seed 20170811, at most 48 APs
// each): scenario, backend, and both bands' planner inputs. It is the
// measured count plus a tenth (11,777 on linux/amd64 with Go 1.24, where
// per-AP neighbor lists, copied into []int per backend, and a width map
// per AP made about 25,630, and a timer and a closure per backend ticker
// 12,162), so per-AP static tables cannot quietly regrow. A change that
// lowers the count should lower the ceiling with it.
const fleetSetupAllocCeiling = 12_950

func TestFleetSetupAllocCeiling(t *testing.T) {
	f := fleet.Generate(fleet.Options{Seed: 20170811, Networks: 64, MaxAPs: 48})
	c := New(Config{Seed: 1, Obs: obs.NewRegistry()})
	if err := c.AddFleet(f); err != nil {
		t.Fatal(err)
	}
	nets := c.nets()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, ns := range nets {
		ns.ensureBuilt()
		ns.be.PlannerInput(spectrum.Band5)
		ns.be.PlannerInput(spectrum.Band2G4)
	}
	runtime.ReadMemStats(&after)
	n := after.Mallocs - before.Mallocs
	t.Logf("%d allocations to build %d networks and their planner inputs", n, len(nets))
	if n > fleetSetupAllocCeiling {
		t.Fatalf("%d allocations to build %d networks, ceiling %d", n, len(nets), fleetSetupAllocCeiling)
	}
}

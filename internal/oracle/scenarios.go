package oracle

import (
	"math/bits"
	"math/rand"

	"repro/internal/spectrum"
	"repro/internal/turboca"
)

// Kind names a small-topology family for gap campaigns. The families span
// the contention regimes the planner faces: chains and rings (sparse,
// 2-regular), grids (the campus floor-plan shape), cliques (everyone hears
// everyone — the hardest case for greedy assignment), and random sparse
// graphs.
type Kind string

const (
	Line   Kind = "line"
	Ring   Kind = "ring"
	Grid   Kind = "grid"
	Clique Kind = "clique"
	Sparse Kind = "sparse"
)

// Kinds lists every scenario family, in campaign order.
var Kinds = []Kind{Line, Ring, Grid, Clique, Sparse}

// Scenario builds a deterministic n-AP planning problem of the given
// family from one RNG stream. The problems are sized for exact solving:
// 5 GHz, DFS off, width capped at 80 MHz (so the candidate set stays
// small and every ReservedCA 20 MHz choice is oracle-feasible), no pinned
// APs (RunReservedCA ignores pinning, so pinned inputs would let the
// static baseline cheat outside the oracle's feasible set). Roughly 60%
// of APs start with an on-air 20/40 MHz channel; the rest are greenfield.
func Scenario(kind Kind, n int, r *rand.Rand) (turboca.Config, turboca.Input) {
	cfg := turboca.DefaultConfig()
	in := turboca.Input{
		Band:     spectrum.Band5,
		AllowDFS: false,
		MaxWidth: spectrum.W80,
	}
	currents := spectrum.AllChannels(spectrum.Band5, spectrum.W40, false)
	sub20s := spectrum.Channels(spectrum.Band5, spectrum.W20, true)
	for i := 0; i < n; i++ {
		v := turboca.APView{
			ID:          i,
			MaxWidth:    spectrum.W80,
			HasClients:  r.Float64() < 0.8,
			CSAFraction: r.Float64(),
			Load:        0.2 + r.Float64()*4,
			Utilization: r.Float64() * 0.8,
			WidthLoad:   [4]float64{0.1 + r.Float64(), r.Float64(), r.Float64()},
		}
		if r.Float64() < 0.6 {
			v.Current = currents[r.Intn(len(currents))]
		}
		for k := r.Intn(3); k > 0; k-- {
			id, _ := spectrum.IDOf(currents[r.Intn(len(currents))])
			if v.ExternalUtil == nil {
				v.ExternalUtil = make([]float64, len(sub20s))
			}
			for m := id.Mask(); m != 0; m &= m - 1 {
				v.ExternalUtil[bits.TrailingZeros64(m)] = r.Float64() * 0.7
			}
		}
		in.APs = append(in.APs, v)
	}

	edge := func(i, j int) {
		in.APs[i].Neighbors = append(in.APs[i].Neighbors, j)
		in.APs[j].Neighbors = append(in.APs[j].Neighbors, i)
	}
	switch kind {
	case Line:
		for i := 0; i+1 < n; i++ {
			edge(i, i+1)
		}
	case Ring:
		for i := 0; i+1 < n; i++ {
			edge(i, i+1)
		}
		if n > 2 {
			edge(n-1, 0)
		}
	case Grid:
		// Nearly-square grid with 4-neighborhoods: cols = ceil(sqrt(n)).
		cols := 1
		for cols*cols < n {
			cols++
		}
		for i := 0; i < n; i++ {
			if (i+1)%cols != 0 && i+1 < n {
				edge(i, i+1)
			}
			if i+cols < n {
				edge(i, i+cols)
			}
		}
	case Clique:
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				edge(i, j)
			}
		}
	case Sparse:
		// Connected backbone plus ~n/2 random chords.
		for i := 1; i < n; i++ {
			edge(i, r.Intn(i))
		}
		for k := n / 2; k > 0; k-- {
			i, j := r.Intn(n), r.Intn(n)
			if i != j {
				edge(i, j)
			}
		}
	}
	in.Sanitize()
	return cfg, in
}

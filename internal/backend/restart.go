package backend

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/turboca"
)

// Restart points. Export writes down what a continuation of the backend
// depends on and Import puts a freshly built backend (same Options, same
// scenario built afresh, engine imported, nothing started) there. What
// can be rebuilt is not written: the planner-input templates, the Model's
// memo and caches, the RF traces (a pure function of their seed, extended
// lazily in time order) and the scenario's static picture. The counters
// on the obs registry are not state either: a backend that imported
// counts only what it did since.

// State is a backend's exported position.
type State struct {
	APs        []APState
	RNG        uint64 // b.rng's SplitMix64 position
	Switches   int
	RadarHits  int
	Disruption float64
	// NOP is the RF environment's quarantine table (rfenv.Quarantine
	// Expiries), nil without one or when empty.
	NOP []sim.Time `json:",omitempty"`
	// Late lists the delayed reports in transit, by the slot their
	// evLate event names.
	Late    []LateReport          `json:",omitempty"`
	Service *turboca.ServiceState `json:",omitempty"`
}

// APState is one AP's row: the channels it is on and what the control
// plane keeps about it.
type APState struct {
	On     [spectrum.Band5 + 1]Chan // the channel the AP is on, by band
	Report *apReport                `json:",omitempty"` // last-known-good, once reported
	// Intended is the plan of record by band, its channel and fallback
	// (nil where there is none), and Retrying marks a band with a backoff
	// retry in flight.
	Intended [spectrum.Band5 + 1]*[2]Chan
	Retrying [spectrum.Band5 + 1]bool
	Fallback Chan
}

// Chan is a spectrum.Channel written compactly: band, number, width and
// DFS as 0 or 1.
type Chan [4]int

func chanOf(c spectrum.Channel) Chan {
	dfs := 0
	if c.DFS {
		dfs = 1
	}
	return Chan{int(c.Band), c.Number, int(c.Width), dfs}
}

func (c Chan) channel() spectrum.Channel {
	return spectrum.Channel{Band: spectrum.Band(c[0]), Number: c[1], Width: spectrum.Width(c[2]), DFS: c[3] != 0}
}

// LateReport is one delayed report in transit. Demand and Util are
// float64 bits: a report can be corrupted in transit to NaN or an
// infinity (it is rejected on delivery), which JSON cannot carry.
type LateReport struct {
	Slot, AP     int
	At           sim.Time
	Demand, Util uint64
	HasClients   bool
}

// Export writes the backend's state. A backend that keeps a telemetry
// history cannot be exported: the history is not part of State.
func (b *Backend) Export() (State, error) {
	if b.hist != nil {
		return State{}, errors.New("backend: cannot export a backend that keeps telemetry history")
	}
	st := State{
		APs:        make([]APState, len(b.rows)),
		RNG:        b.rngSrc.State,
		Switches:   b.switches,
		RadarHits:  b.radarHit,
		Disruption: b.disruptionTotal,
	}
	for i, ap := range b.Scenario.APs {
		row := &b.rows[i]
		a := &st.APs[i]
		a.On[spectrum.Band2G4], a.On[spectrum.Band5] = chanOf(ap.Channel24), chanOf(ap.Channel)
		a.Retrying, a.Fallback = row.retrying, chanOf(row.fallback)
		if row.reported {
			rep := row.report
			a.Report = &rep
		}
		for band, has := range row.has {
			if has {
				in := row.intended[band]
				a.Intended[band] = &[2]Chan{chanOf(in.Channel), chanOf(in.Fallback)}
			}
		}
	}
	if b.rf != nil {
		st.NOP = b.rf.Q.Expiries()
	}
	for slot, s := range b.late {
		if s.ap != nil {
			st.Late = append(st.Late, LateReport{Slot: slot, AP: s.ap.ID, At: s.rec.At,
				Demand: math.Float64bits(s.rec.Demand), Util: math.Float64bits(s.rec.Util), HasClients: s.hasClients})
		}
	}
	if b.Service != nil {
		svc := b.Service.Export()
		st.Service = &svc
	}
	return st, nil
}

// Import puts a backend fresh from New, whose engine imported the
// exported engine's State instead of being started, where st says.
func (b *Backend) Import(st State) error {
	if b.hist != nil {
		return errors.New("backend: cannot import into a backend that keeps telemetry history")
	}
	if len(st.APs) != len(b.rows) {
		return fmt.Errorf("backend: state holds %d APs, the scenario %d", len(st.APs), len(b.rows))
	}
	if (st.Service != nil) != (b.Service != nil) {
		return errors.New("backend: state and backend disagree on the planning service")
	}
	if st.NOP != nil && b.rf == nil {
		return errors.New("backend: state holds a quarantine table and the backend no RF environment")
	}
	for i, ap := range b.Scenario.APs {
		a, row := &st.APs[i], &b.rows[i]
		ap.Channel24, ap.Channel = a.On[spectrum.Band2G4].channel(), a.On[spectrum.Band5].channel()
		*row = apRow{retrying: a.Retrying, fallback: a.Fallback.channel()}
		if a.Report != nil {
			row.report, row.reported = *a.Report, true
		}
		for band, in := range a.Intended {
			if in != nil {
				row.intended[band] = turboca.Assignment{Channel: in[0].channel(), Fallback: in[1].channel()}
				row.has[band] = true
			}
		}
	}
	b.rngSrc.State = st.RNG
	b.switches, b.radarHit, b.disruptionTotal = st.Switches, st.RadarHits, st.Disruption
	if b.rf != nil {
		b.rf.Q.SetExpiries(st.NOP)
	}
	b.late = nil
	for _, l := range st.Late {
		if l.AP < 0 || l.AP >= len(b.rows) || l.Slot < 0 {
			return fmt.Errorf("backend: late report for AP %d in slot %d", l.AP, l.Slot)
		}
		for len(b.late) <= l.Slot {
			b.late = append(b.late, polledSample{})
		}
		b.late[l.Slot] = polledSample{ap: b.Scenario.APs[l.AP], hasClients: l.HasClients,
			rec: pollRec{At: l.At, Demand: math.Float64frombits(l.Demand), Util: math.Float64frombits(l.Util)}}
	}
	if b.Service != nil {
		b.Service.Import(*st.Service)
	}
	b.Model.Invalidate()
	return nil
}

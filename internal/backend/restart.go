package backend

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/codec"
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
	NOP []sim.Time
	// Late lists the delayed reports in transit, by the slot their
	// evLate event names.
	Late []LateReport
	// Service is the planning service's state, where HasService.
	HasService bool
	Service    turboca.ServiceState
}

// APState is one AP's row: the channels it is on and what the control
// plane keeps about it.
type APState struct {
	On [spectrum.Band5 + 1]spectrum.Channel // the channel the AP is on, by band
	// Report is the last-known-good report, where Reported.
	Reported bool
	Report   apReport
	// Intended is the plan of record by band, where HasIntended, and
	// Retrying marks a band with a backoff retry in flight.
	HasIntended [spectrum.Band5 + 1]bool
	Intended    [spectrum.Band5 + 1]turboca.Assignment
	Retrying    [spectrum.Band5 + 1]bool
	Fallback    spectrum.Channel
}

// LateReport is one delayed report in transit. A report can be corrupted
// in transit to NaN or an infinity; it is rejected on delivery.
type LateReport struct {
	Slot, AP     int
	At           sim.Time
	Demand, Util float64
	HasClients   bool
}

// Export writes the backend's state into st, reusing the storage of
// st.APs: one State carries network after network through a checkpoint
// render. A backend that keeps a telemetry history cannot be exported:
// the history is not part of State.
func (b *Backend) Export(st *State) error {
	if b.hist != nil {
		return errors.New("backend: cannot export a backend that keeps telemetry history")
	}
	*st = State{
		APs:        slices.Grow(st.APs[:0], len(b.rows))[:len(b.rows)],
		RNG:        b.rngSrc.State,
		Switches:   b.switches,
		RadarHits:  b.radarHit,
		Disruption: b.disruptionTotal,
	}
	for i, ap := range b.Scenario.APs {
		row, a := &b.rows[i], &st.APs[i]
		*a = APState{
			On:       [...]spectrum.Channel{spectrum.Band2G4: ap.Channel24, spectrum.Band5: ap.Channel},
			Reported: row.reported, HasIntended: row.has, Retrying: row.retrying, Fallback: row.fallback,
		}
		if row.reported {
			a.Report = row.report
		}
		for band, has := range row.has {
			if has {
				a.Intended[band] = row.intended[band]
			}
		}
	}
	if b.rf != nil {
		st.NOP = b.rf.Q.Expiries()
	}
	for slot, s := range b.late {
		if s.ap != nil {
			st.Late = append(st.Late, LateReport{Slot: slot, AP: s.ap.ID, At: s.rec.At,
				Demand: s.rec.Demand, Util: s.rec.Util, HasClients: s.hasClients})
		}
	}
	if b.Service != nil {
		st.HasService, st.Service = true, b.Service.Export()
	}
	return nil
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
	if st.HasService != (b.Service != nil) {
		return errors.New("backend: state and backend disagree on the planning service")
	}
	if st.NOP != nil && b.rf == nil {
		return errors.New("backend: state holds a quarantine table and the backend no RF environment")
	}
	for i, ap := range b.Scenario.APs {
		a, row := &st.APs[i], &b.rows[i]
		ap.Channel24, ap.Channel = a.On[spectrum.Band2G4], a.On[spectrum.Band5]
		*row = apRow{report: a.Report, reported: a.Reported, intended: a.Intended, has: a.HasIntended,
			retrying: a.Retrying, fallback: a.Fallback}
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
			rec: pollRec{At: l.At, Demand: l.Demand, Util: l.Util}}
	}
	if b.Service != nil {
		b.Service.Import(st.Service)
	}
	b.Model.Invalidate()
	return nil
}

// Append appends st in the restart-state encoding (package codec): the AP
// rows, the rng, the tallies, the quarantine table, the delayed reports
// and, behind a presence flag, the planning service's state. An AP row's
// report and each band's plan of record follow their presence flags.
func (st *State) Append(b []byte) []byte {
	b = codec.AppendUint(b, uint64(len(st.APs)))
	for i := range st.APs {
		a := &st.APs[i]
		for _, c := range a.On {
			b = appendChannel(b, c)
		}
		if b = codec.AppendBool(b, a.Reported); a.Reported {
			b = codec.AppendInt(b, int64(a.Report.At))
			b = codec.AppendFloat(b, a.Report.Demand)
			b = codec.AppendFloat(b, a.Report.Utilization)
			b = codec.AppendBool(b, a.Report.HasClients)
		}
		for band, has := range a.HasIntended {
			if b = codec.AppendBool(b, has); has {
				b = appendChannel(b, a.Intended[band].Channel)
				b = appendChannel(b, a.Intended[band].Fallback)
			}
		}
		for _, r := range a.Retrying {
			b = codec.AppendBool(b, r)
		}
		b = appendChannel(b, a.Fallback)
	}
	b = codec.AppendUint(b, st.RNG)
	b = codec.AppendInt(b, int64(st.Switches))
	b = codec.AppendInt(b, int64(st.RadarHits))
	b = codec.AppendFloat(b, st.Disruption)
	b = codec.AppendUint(b, uint64(len(st.NOP)))
	for _, t := range st.NOP {
		b = codec.AppendInt(b, int64(t))
	}
	b = codec.AppendUint(b, uint64(len(st.Late)))
	for _, l := range st.Late {
		b = codec.AppendInt(b, int64(l.Slot))
		b = codec.AppendInt(b, int64(l.AP))
		b = codec.AppendInt(b, int64(l.At))
		b = codec.AppendFloat(b, l.Demand)
		b = codec.AppendFloat(b, l.Util)
		b = codec.AppendBool(b, l.HasClients)
	}
	if b = codec.AppendBool(b, st.HasService); st.HasService {
		b = st.Service.Append(b)
	}
	return b
}

// ReadState reads a State that Append wrote; a malformed one sets r's
// error.
func ReadState(r *codec.Reader) State {
	var st State
	if n := r.Len(17); n > 0 { // an AP row takes at least 17 bytes
		st.APs = make([]APState, n)
	}
	for i := range st.APs {
		a := &st.APs[i]
		for band := range a.On {
			a.On[band] = readChannel(r)
		}
		if a.Reported = r.Bool(); a.Reported {
			a.Report = apReport{At: sim.Time(r.Int()), Demand: r.Float(), Utilization: r.Float(), HasClients: r.Bool()}
		}
		for band := range a.HasIntended {
			if a.HasIntended[band] = r.Bool(); a.HasIntended[band] {
				a.Intended[band] = turboca.Assignment{Channel: readChannel(r), Fallback: readChannel(r)}
			}
		}
		for band := range a.Retrying {
			a.Retrying[band] = r.Bool()
		}
		a.Fallback = readChannel(r)
	}
	st.RNG, st.Switches, st.RadarHits, st.Disruption = r.Uint(), int(r.Int()), int(r.Int()), r.Float()
	if n := r.Len(1); n > 0 {
		st.NOP = make([]sim.Time, n)
	}
	for i := range st.NOP {
		st.NOP[i] = sim.Time(r.Int())
	}
	if n := r.Len(20); n > 0 { // a delayed report takes at least 20 bytes
		st.Late = make([]LateReport, n)
	}
	for i := range st.Late {
		st.Late[i] = LateReport{Slot: int(r.Int()), AP: int(r.Int()), At: sim.Time(r.Int()),
			Demand: r.Float(), Util: r.Float(), HasClients: r.Bool()}
	}
	if st.HasService = r.Bool(); st.HasService {
		st.Service = turboca.ReadServiceState(r)
	}
	return st
}

// appendChannel appends a channel's band, number and width, and its DFS
// flag. The three are never negative, so they are written unsigned: a
// 5 GHz number below 128 and the 80 MHz width take one byte each, not
// the two a zig-zag varint takes.
func appendChannel(b []byte, c spectrum.Channel) []byte {
	b = codec.AppendUint(b, uint64(c.Band))
	b = codec.AppendUint(b, uint64(c.Number))
	b = codec.AppendUint(b, uint64(c.Width))
	return codec.AppendBool(b, c.DFS)
}

func readChannel(r *codec.Reader) spectrum.Channel {
	return spectrum.Channel{Band: spectrum.Band(r.Uint()), Number: int(r.Uint()), Width: spectrum.Width(r.Uint()), DFS: r.Bool()}
}

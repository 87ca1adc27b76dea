// Data-path fault model for the §5 FastACK subsystem: wired-side segment
// loss, reorder, duplication and corruption between the TCP sender and the
// AP, wireless block-ACK feedback loss bursts at the MAC, and client
// roam/disconnect windows. Same discipline as the control-plane model in
// faults.go: every decision is a pure hash of (seed, coordinates), so the
// fault sequence is order-independent and byte-identical per seed, and a
// faulted run can be compared against its fault-free twin.
package faults

import "repro/internal/sim"

// DataProfile describes one data-path fault model. Probabilities are per
// decision (per wired segment arrival, per block-ACK feedback event); zero
// disables that fault class. The zero DataProfile injects nothing.
type DataProfile struct {
	// Seed anchors every hash-derived decision.
	Seed int64

	// WireLoss is the probability one wired-side TCP segment is lost
	// between the sender and the AP.
	WireLoss float64
	// WireReorder is the probability one wired-side segment is held back
	// behind later traffic; the extra delay is uniform in (0,
	// WireReorderMax] (default 2 ms).
	WireReorder    float64
	WireReorderMax sim.Time
	// WireDup is the probability one wired-side segment arrives twice.
	WireDup float64
	// WireCorrupt is the probability one wired-side segment arrives with
	// mangled TCP header fields (sequence jumps, ack/window garbage).
	WireCorrupt float64

	// BALoss is the probability that one BALossWindow-sized interval of a
	// client's block-ACK feedback goes dark (the MAC-layer delivery
	// reports never reach the FastACK agent). Hashing the window index
	// rather than each event makes the losses bursty, which is how
	// block-ACK starvation presents on real channels.
	BALoss       float64
	BALossWindow sim.Time // default 50 ms

	// Disconnects lists per-client windows during which the client's
	// uplink is dead at the AP (frames transmit, nothing comes back).
	// Window.APID carries the client index.
	Disconnects []Window

	// Roams schedules mid-flow client roams between APs.
	Roams []Roam
}

// Roam moves one client to another AP at a fixed instant.
type Roam struct {
	Client int
	ToAP   int
	At     sim.Time
}

// DataChaos is the canonical data-path stress profile used by the chaos
// suite and cmd/experiments -only chaos: 2% wired loss, 2% reorder, 1%
// duplication, 0.5% header corruption, and 5% of 50 ms block-ACK feedback
// windows dark. Disconnects and roams are scenario-specific and left to
// the caller.
func DataChaos(seed int64) *DataProfile {
	return &DataProfile{
		Seed:        seed,
		WireLoss:    0.02,
		WireReorder: 0.02,
		WireDup:     0.01,
		WireCorrupt: 0.005,
		BALoss:      0.05,
	}
}

// DataInjector answers the datapath's fault questions. A nil *DataInjector
// is valid and reports "no fault" everywhere. Wired-segment decisions are
// keyed (client, seq, attempt) so that, like the control-plane injector,
// the answer is a pure hash that does not depend on delivery order — and
// crucially does not depend on the AP's operating mode, so a Baseline run
// and a FastACK run at the same seed face the identical fault sequence for
// each (re)transmission of a given segment.
type DataInjector struct {
	prof DataProfile
	// core carries the shared reorder/duplication primitives.
	core *Injector
	disc map[int][]Window
	// arrivals counts wire arrivals per (client, seq): the attempt
	// coordinate. Keying faults on the attempt index rather than wall time
	// keeps the model fair to fast recovery — an agent that retransmits a
	// dropped segment within microseconds draws a fresh decision instead
	// of re-hitting the one that killed the original.
	arrivals map[segKey]int
}

type segKey struct {
	client int
	seq    uint32
}

// UplinkCoord maps a client index onto a disjoint coordinate space for
// faults on that client's *uplink* wired segments (AP -> server). Salting
// the direction keeps uplink and downlink data of one client drawing
// independent fault streams while staying a pure function of the seed.
func UplinkCoord(client int) int { return client + 1<<20 }

// NewData builds an injector for a data-path profile; a nil profile
// yields a nil injector (fault-free).
func NewData(p *DataProfile) *DataInjector {
	if p == nil {
		return nil
	}
	dj := &DataInjector{prof: *p, disc: map[int][]Window{}, arrivals: map[segKey]int{}}
	if dj.prof.WireReorderMax <= 0 {
		dj.prof.WireReorderMax = 2 * sim.Millisecond
	}
	if dj.prof.BALossWindow <= 0 {
		dj.prof.BALossWindow = 50 * sim.Millisecond
	}
	dj.core = New(&Profile{
		Seed:       p.Seed,
		Reorder:    p.WireReorder,
		ReorderMax: dj.prof.WireReorderMax,
		Duplicate:  p.WireDup,
	})
	for _, w := range p.Disconnects {
		dj.disc[w.APID] = append(dj.disc[w.APID], w)
	}
	return dj
}

// Active reports whether any fault can ever fire.
func (dj *DataInjector) Active() bool { return dj != nil }

// Data-path decision kinds, disjoint from the control-plane kinds.
const (
	kindWireLoss = iota + 100
	kindWireCorrupt
	kindWireCorruptField
	kindBALoss
)

// SegmentArrival registers one wire arrival of (client, seq) and returns
// its attempt index (0 for the first transmission, 1 for the first
// retransmission, ...). The caller passes the index to the per-segment
// decision methods so one arrival draws one coherent set of faults. The
// first transmission of every segment draws attempt 0 in any mode, so a
// Baseline run and a FastACK run at one seed face the identical initial
// fault pattern; recovery traffic draws fresh per attempt, so neither
// mode's retransmissions can deterministically re-hit the same drop.
func (dj *DataInjector) SegmentArrival(client int, seq uint32) int {
	if dj == nil {
		return 0
	}
	k := segKey{client, seq}
	n := dj.arrivals[k]
	dj.arrivals[k] = n + 1
	return n
}

// DropSegment reports whether this attempt of the wired segment
// (client, seq) is lost.
func (dj *DataInjector) DropSegment(client int, seq uint32, attempt int) bool {
	if dj == nil || dj.prof.WireLoss <= 0 {
		return false
	}
	return dj.core.uniform(client, kindWireLoss, int(seq), attempt, 0) < dj.prof.WireLoss
}

// ReorderSegment reports whether this attempt of the wired segment
// (client, seq) is held back behind later traffic, and by how much.
func (dj *DataInjector) ReorderSegment(client int, seq uint32, attempt int) (sim.Time, bool) {
	if dj == nil {
		return 0, false
	}
	return dj.core.ReorderDelay(client, int(seq), sim.Time(attempt))
}

// DuplicateSegment reports whether this attempt of the wired segment
// (client, seq) arrives twice.
func (dj *DataInjector) DuplicateSegment(client int, seq uint32, attempt int) bool {
	if dj == nil {
		return false
	}
	return dj.core.Duplicate(client, int(seq), sim.Time(attempt))
}

// CorruptSegment reports whether this attempt of the wired segment
// (client, seq) arrives with mangled TCP header fields.
func (dj *DataInjector) CorruptSegment(client int, seq uint32, attempt int) bool {
	if dj == nil || dj.prof.WireCorrupt <= 0 {
		return false
	}
	return dj.core.uniform(client, kindWireCorrupt, int(seq), attempt, 0) < dj.prof.WireCorrupt
}

// CorruptU32 derives the deterministic garbage written into a corrupted
// segment's header. salt separates the fields of one segment.
func (dj *DataInjector) CorruptU32(client int, seq uint32, salt, attempt int) uint32 {
	if dj == nil {
		return 0
	}
	return uint32(mix(dj.prof.Seed, client, kindWireCorruptField, int(seq), salt, sim.Time(attempt)))
}

// DropBAFeedback reports whether the client's block-ACK feedback is dark
// at this instant. The draw hashes the enclosing BALossWindow index, so a
// hit blacks out the whole window — a burst, not isolated events.
func (dj *DataInjector) DropBAFeedback(client int, at sim.Time) bool {
	if dj == nil || dj.prof.BALoss <= 0 {
		return false
	}
	win := at / dj.prof.BALossWindow
	return dj.core.uniform(client, kindBALoss, 0, 0, win) < dj.prof.BALoss
}

// Disconnected reports whether the client is inside one of its uplink
// disconnect windows.
func (dj *DataInjector) Disconnected(client int, at sim.Time) bool {
	if dj == nil {
		return false
	}
	for _, w := range dj.disc[client] {
		if at >= w.From && at < w.To {
			return true
		}
	}
	return false
}

// Roams returns the scheduled mid-flow roams.
func (dj *DataInjector) Roams() []Roam {
	if dj == nil {
		return nil
	}
	return dj.prof.Roams
}

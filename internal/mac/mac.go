// Package mac implements a discrete-event IEEE 802.11ac MAC simulator:
// EDCA channel access (per-access-category AIFS/CW contention), A-MPDU
// aggregation with block acknowledgements, per-MPDU error rates from the
// PHY model, retransmission with per-AC retry limits, Minstrel-style rate
// adaptation, and airtime accounting.
//
// The simulator is the testbed substrate for the FastACK evaluation
// (Figs 10, 14-18) and the access-category study (Fig 4). Its essential
// property, per §5.1 of the paper, is that aggregate sizes emerge from
// queue depth at transmit opportunity: a TCP sender that is poorly clocked
// leaves shallow queues and therefore small aggregates.
//
// A StationID is a station's position in its Medium and its one identity
// here: everything kept per peer, per (peer, TID) or per pair of stations
// is a row at the peer's ID (peerRow, acQueue.byDst), grown on first
// contact, and nothing is a map keyed by station (DESIGN.md §3.9).
package mac

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// StationID indexes a station within a Medium.
type StationID int

// MPDU is one MAC protocol data unit: an IP datagram plus MAC metadata.
type MPDU struct {
	Dgram      *packet.Datagram
	Src, Dst   StationID
	AC         phy.AccessCategory
	EnqueuedAt sim.Time // wire arrival at the transmitter (for 802.11 latency)
	Retries    int

	// tidSeq is the 802.11 per-TID sequence number, assigned at first
	// transmission attempt; the receiver's reorder buffer releases MSDUs
	// in tidSeq order.
	tidSeq    uint32
	tidSeqSet bool
}

// TIDSeq returns the 802.11 per-TID sequence number assigned at first
// transmission (0 and false before any attempt).
func (m *MPDU) TIDSeq() (uint32, bool) { return m.tidSeq, m.tidSeqSet }

func (m *MPDU) String() string {
	return fmt.Sprintf("MPDU[%d->%d %v retries=%d %v]", m.Src, m.Dst, m.AC, m.Retries, m.Dgram)
}

// DeliveredFn is invoked on the transmitter when the block ACK for an MPDU
// arrives (ok=true) or the MPDU is dropped after exhausting retries
// (ok=false). This is the 802.11-ACK hook FastACK builds on (§5.2).
type DeliveredFn func(m *MPDU, ok bool, now sim.Time)

// ReceiveFn is invoked on the receiver when an MPDU arrives intact.
type ReceiveFn func(m *MPDU, now sim.Time)

// StationConfig describes one station's radio and stack.
type StationConfig struct {
	Name    string
	NSS     int            // spatial streams (1-4)
	Width   spectrum.Width // operating bandwidth
	GI      phy.GuardInterval
	IsAP    bool
	TxDelay sim.Time // host-stack latency before an enqueued frame may contend
	// QueueLimit caps per-destination queue depth in packets (tail drop).
	// Zero means the default (512).
	QueueLimit int
	// SharedPoolLimit caps the total MPDUs queued across all destinations
	// and access categories, modeling the driver's shared tx-descriptor
	// pool. Zero means unlimited. Front-inserted (elevated) frames bypass
	// the pool check: they replace airtime already accounted for.
	SharedPoolLimit int
}

// perACRetryLimit returns how many retransmissions each access category
// attempts before declaring loss. More aggressive categories retry more
// (they regain the medium quickly), which is how VI/VO sustain the low
// loss rates observed in Fig 4.
func perACRetryLimit(ac phy.AccessCategory) int {
	switch ac {
	case phy.ACBK:
		return 4
	case phy.ACVI:
		return 12
	case phy.ACVO:
		return 8
	default:
		return 7
	}
}

const defaultQueueLimit = 512

// backoffState is the per-(station, AC) EDCA contention state.
type backoffState struct {
	cw      int // current contention window
	counter int // remaining backoff slots; -1 = needs fresh draw
}

// fail doubles the contention window, up to the category's CWMax, after a
// frame exchange that delivered nothing, and asks for a fresh draw.
func (bs *backoffState) fail(ac phy.AccessCategory) {
	bs.cw = bs.cw*2 + 1
	if max := ac.EDCA().CWMax; bs.cw > max {
		bs.cw = max
	}
	bs.counter = -1
}

// peerRow is one station's state about one peer. The zero row is a peer
// never heard from: no rate controller yet, sequence numbers at 0 in both
// directions, nothing held, default SNR.
type peerRow struct {
	rate  *RateController // link adaptation toward the peer, made on first use
	txSeq [4]uint32       // next per-TID sequence number toward the peer, by AC
	rx    [4]reorderBuf   // reorder buffers for frames from the peer, by AC

	// State of the pair, which is symmetric and so stored once: in the
	// higher-numbered station's row for the lower-numbered one (Medium.pairRow).
	// APs attach first, so a client's table is as long as there are APs.
	snr    float64
	hasSNR bool // false: the medium's default SNR
}

// Station is one 802.11 transceiver attached to a Medium.
type Station struct {
	ID     StationID
	cfg    StationConfig
	medium *Medium

	queues   [4]*acQueue // indexed by phy.AccessCategory
	backoffs [4]backoffState

	// peers is what the station keeps about every other station, one row
	// per peer at the peer's StationID, grown on first contact (see peer).
	peers []peerRow

	// slab is the chunk the station's next MPDU is cut from (see newMPDU).
	slab []MPDU

	// txLine carries enqueued frames through the TxDelay host-stack wait;
	// nil without a TxDelay. Stations with equal delays share one.
	txLine *sim.Line[*MPDU]

	// Upper-layer hooks.
	OnReceive   ReceiveFn
	OnDelivered DeliveredFn
	// OnDrop is invoked when a frame is tail-dropped at enqueue or dropped
	// after exhausting retries. May be nil.
	OnDrop func(m *MPDU, now sim.Time)

	stats StationStats
}

// StationStats accumulates per-station counters.
type StationStats struct {
	TxMPDUs      int64   // MPDU transmission attempts
	TxFrames     int64   // A-MPDU frames sent
	Delivered    int64   // MPDUs acknowledged
	Dropped      int64   // MPDUs lost (retry exhaustion or tail drop)
	PoolDrops    int64   // tail drops from shared-pool exhaustion
	Collisions   int64   // frames lost to collision
	AirtimeUs    float64 // airtime consumed transmitting
	AggHistogram [phy.MaxAMPDUSubframes + 1]int64
}

// MeanAggregate returns the mean A-MPDU subframe count.
func (s *StationStats) MeanAggregate() float64 {
	var n, sum int64
	for size, c := range s.AggHistogram {
		n += c
		sum += int64(size) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Name returns the configured station name.
func (s *Station) Name() string { return s.cfg.Name }

// Config returns the station configuration.
func (s *Station) Config() StationConfig { return s.cfg }

// Stats returns a snapshot of the station counters.
func (s *Station) Stats() StationStats { return s.stats }

// QueueDepth returns the number of MPDUs queued for dst in category ac.
func (s *Station) QueueDepth(ac phy.AccessCategory, dst StationID) int {
	return s.queues[ac].depthFor(dst)
}

// hasTraffic reports whether any AC has queued frames.
func (s *Station) hasTraffic() bool {
	for _, q := range s.queues {
		if q.count > 0 {
			return true
		}
	}
	return false
}

// totalQueued counts MPDUs across all ACs and destinations.
func (s *Station) totalQueued() int {
	n := 0
	for _, q := range s.queues {
		n += q.count
	}
	return n
}

// Enqueue submits a datagram for transmission to dst under category ac.
// It returns false if the per-destination queue limit tail-dropped the
// packet. TxDelay models host-stack latency before the frame can contend
// (the ≥2 ms client TCP-ACK turnaround noted in §5.1).
func (s *Station) Enqueue(d *packet.Datagram, dst StationID, ac phy.AccessCategory) bool {
	limit := s.cfg.QueueLimit
	if limit <= 0 {
		limit = defaultQueueLimit
	}
	q := s.queues[ac]
	m := s.newMPDU(d, dst, ac)
	if pool := s.cfg.SharedPoolLimit; pool > 0 && s.totalQueued() >= pool {
		s.stats.Dropped++
		s.stats.PoolDrops++
		if s.OnDrop != nil {
			s.OnDrop(m, s.medium.engine.Now())
		}
		return false
	}
	if q.depthFor(dst) >= limit {
		s.stats.Dropped++
		if s.OnDrop != nil {
			s.OnDrop(m, s.medium.engine.Now())
		}
		return false
	}
	if s.txLine != nil {
		s.txLine.Push(m)
		return true
	}
	q.enqueue(m)
	s.medium.kickContention()
	return true
}

// FlushDst discards every queued MPDU destined to dst across all access
// categories (used when a client roams away) and returns the count.
func (s *Station) FlushDst(dst StationID) int {
	removed := 0
	for _, q := range s.queues {
		removed += len(q.popFor(dst, q.depthFor(dst)))
	}
	return removed
}

// EnqueueFront submits a datagram at the head of the destination's queue,
// ahead of already-queued frames — the "priority elevation" FastACK applies
// to end-to-end retransmissions and cache re-drives (§5.4 case ii).
func (s *Station) EnqueueFront(d *packet.Datagram, dst StationID, ac phy.AccessCategory) {
	s.queues[ac].requeueFront(s.newMPDU(d, dst, ac))
	s.medium.kickContention()
}

// mpduSlab is how many MPDUs one slab chunk holds. A chunk lives while any
// of its rows does, and with it every row's datagram, so the size trades
// allocations against resident bytes. On testbed_downlink, 8 rows keep 88 %
// of the allocations that 64 save, for 1 % more live heap against 10 %.
// Chunks per destination rather than per station hold more, not less: each
// destination keeps a part-filled chunk of its own.
const mpduSlab = 8

// newMPDU returns a fresh MPDU for d, enqueued now, cut from the station's
// current slab chunk; a full chunk is left to the collector and a new one
// started. Nothing is ever handed back to a chunk, so an MPDU may be held
// for as long as anyone likes — by a reorder buffer, an OnTransmit or
// OnDelivered hook — and its chunk is freed once none of its rows is
// reachable.
func (s *Station) newMPDU(d *packet.Datagram, dst StationID, ac phy.AccessCategory) *MPDU {
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]MPDU, 0, mpduSlab)
	}
	s.slab = append(s.slab, MPDU{
		Dgram: d, Src: s.ID, Dst: dst, AC: ac,
		EnqueuedAt: s.medium.engine.Now(),
	})
	return &s.slab[len(s.slab)-1]
}

// peer returns s's row for id, growing the table to id+1 on first contact.
// The pointer is good until the table next grows, and any OnReceive,
// OnDelivered or OnDrop callback may reach a new peer and grow it: no
// caller holds a row across a callback.
func (s *Station) peer(id StationID) *peerRow {
	for int(id) >= len(s.peers) {
		s.peers = append(s.peers, peerRow{})
	}
	return &s.peers[id]
}

// rateFor returns (creating if needed) the rate controller toward peer.
func (s *Station) rateFor(peer StationID) *RateController {
	row := s.peer(peer)
	if row.rate == nil {
		snr := s.medium.SNR(s.ID, peer)
		width := s.cfg.Width
		if pw := s.medium.stations[peer].cfg.Width; pw < width {
			width = pw // operate at the narrower of the two stations
		}
		nss := s.cfg.NSS
		if pn := s.medium.stations[peer].cfg.NSS; pn < nss {
			nss = pn
		}
		row.rate = NewRateController(nss, width, s.cfg.GI, snr, s.medium.engine.Rand())
	}
	return row.rate
}

package mac

import (
	"repro/internal/phy"
	"repro/internal/sim"
)

// reorderBuf implements the receive-side block-ack reordering buffer of
// 802.11: MPDUs within a TID (here: a (transmitter, AC) pair) carry
// sequence numbers assigned at first transmission, and the receiver
// releases MSDUs to the upper layer strictly in order, holding
// out-of-order arrivals until the hole fills or the transmitter advances
// the window (the Block Ack Request path, which we model as a direct
// advance when the transmitter drops an MPDU after exhausting retries).
//
// Without this buffer, per-subframe losses inside an A-MPDU would surface
// as packet reordering to TCP and trigger spurious fast retransmits —
// something real 802.11 hides completely.
//
// The zero buffer expects sequence 0 and holds nothing: sequence counters
// start at zero on the transmit side, and the first MPDU of a TID may
// itself arrive out of order — or never, when it exhausts its retries — if
// an earlier subframe failed. Buffers live in the receiver's row for the
// transmitter (peerRow.rx), so there is no "buffer that does not exist
// yet" for an early advance to miss.
type reorderBuf struct {
	next uint32
	held map[uint32]*MPDU // made on the first arrival
}

// reorderDeliver accepts an in-flight MPDU at the receiver and releases
// any in-order run to OnReceive. An MPDU that is the one the window waits
// for goes straight up: nothing is ever held at next (every operation ends
// with a flush), so holding it would only insert and delete the same key.
func (s *Station) reorderDeliver(m *MPDU, now sim.Time) {
	rb := &s.peer(m.Src).rx[m.AC]
	if m.tidSeq < rb.next {
		// Duplicate of something already released; drop silently.
		return
	}
	if m.tidSeq == rb.next {
		rb.next++
		if s.OnReceive != nil {
			s.OnReceive(m, now)
		}
		s.reorderFlush(m.Src, m.AC, now)
		return
	}
	if rb.held == nil {
		rb.held = map[uint32]*MPDU{}
	}
	rb.held[m.tidSeq] = m
	s.reorderFlush(m.Src, m.AC, now)
}

// reorderFlush releases the contiguous run starting at the buffer's next.
// OnReceive may grow s.peers, so the buffer is looked up again each turn.
func (s *Station) reorderFlush(src StationID, ac phy.AccessCategory, now sim.Time) {
	for {
		rb := &s.peers[src].rx[ac]
		m, ok := rb.held[rb.next]
		if !ok {
			return
		}
		delete(rb.held, rb.next)
		rb.next++
		if s.OnReceive != nil {
			s.OnReceive(m, now)
		}
	}
}

// reorderAdvance moves the window past a dropped sequence number and
// flushes: the transmitter gave up on tidSeq, so the receiver must not
// wait for it (802.11 BAR semantics).
func (s *Station) reorderAdvance(src StationID, ac phy.AccessCategory, droppedSeq uint32, now sim.Time) {
	// Release, in order, everything held below the new window start: the
	// transmitter will never fill those gaps, but data already received
	// must still reach the upper layer.
	for seq := s.peer(src).rx[ac].next; seq <= droppedSeq; seq++ {
		rb := &s.peers[src].rx[ac]
		if m, held := rb.held[seq]; held {
			delete(rb.held, seq)
			if s.OnReceive != nil {
				s.OnReceive(m, now)
			}
		}
	}
	if rb := &s.peers[src].rx[ac]; rb.next <= droppedSeq {
		rb.next = droppedSeq + 1
	}
	s.reorderFlush(src, ac, now)
}

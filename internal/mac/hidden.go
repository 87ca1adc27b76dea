package mac

import (
	"repro/internal/sim"
)

// Hidden-terminal support (§4.1.2). By default every station hears every
// other station (one room, physical carrier sense suffices — the
// testbed's situation). Calling SetHearing builds an explicit audibility
// matrix; stations that cannot hear each other contend independently,
// which creates classic hidden-node collisions at a shared receiver. The
// RTS/CTS virtual carrier sense (StationConfig.RTSThreshold) then
// recovers most of the loss: a successful RTS/CTS exchange silences every
// station that hears *either* side for the frame's duration (NAV).
//
// Implementation notes: contention rounds remain global (one event
// resolves all contenders), but a "winner" only blocks — and only
// collides with — stations that can hear it. Frames whose receiver is
// inside another winner's interference range are marked corrupted.

// SetHearing declares whether a hears b (and symmetric by default).
// Unset pairs default to audible.
func (md *Medium) SetHearing(a, b StationID, audible bool) {
	md.partial = true
	md.pairRow(a, b).deaf = !audible
}

// hears reports whether a and b are within carrier-sense range.
func (md *Medium) hears(a, b StationID) bool {
	if a == b || !md.partial {
		return true
	}
	row := md.pairRowIfAny(a, b)
	return row == nil || !row.deaf
}

// navUntil returns the time until which st must defer: the later of the
// medium busy time caused by audible transmissions and st's virtual
// carrier sense (NAV set by an overheard RTS/CTS).
func (md *Medium) navUntil(st *Station) sim.Time {
	t := st.physBusyUntil
	if st.navBusyUntil > t {
		t = st.navBusyUntil
	}
	return t
}

// occupy marks the air busy for every station that hears src, for the
// exchange ending at end.
func (md *Medium) occupy(src StationID, end sim.Time) {
	for _, other := range md.stations {
		if md.hears(src, other.ID) {
			if end > other.physBusyUntil {
				other.physBusyUntil = end
			}
		}
	}
}

// setNAV raises the virtual carrier sense of every station that hears
// either endpoint of a protected exchange (RTS from src, CTS from dst).
func (md *Medium) setNAV(src, dst StationID, end sim.Time) {
	for _, other := range md.stations {
		if md.hears(src, other.ID) || md.hears(dst, other.ID) {
			if end > other.navBusyUntil {
				other.navBusyUntil = end
			}
		}
	}
}

// hiddenOverlap returns the total time inside [start, end) during which a
// transmission from a station hidden from tx — but audible at dst — was
// on the air (CSMA at tx could not prevent the overlap).
func (md *Medium) hiddenOverlap(tx, dst StationID, start, end sim.Time) sim.Time {
	var total sim.Time
	for _, o := range md.activeTx {
		if o.src == tx {
			continue
		}
		lo, hi := o.start, o.end
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if hi <= lo {
			continue // no temporal overlap
		}
		if md.hears(dst, o.src) && !md.hears(tx, o.src) {
			total += hi - lo
		}
	}
	if total > end-start {
		total = end - start
	}
	return total
}

// activeTxRecord tracks an in-flight transmission for hidden-node
// interference checks.
type activeTxRecord struct {
	src        StationID
	start, end sim.Time
}

// registerTx records a transmission window and schedules pruning. Records
// linger one maximum frame time past their end so a frame completing
// later can still detect the overlap.
func (md *Medium) registerTx(src StationID, start, end sim.Time) {
	const grace = 6 * sim.Millisecond // > MaxAMPDUDurationUs
	md.activeTx = append(md.activeTx, activeTxRecord{src: src, start: start, end: end})
	md.engine.Schedule(end+grace, func(*sim.Engine) {
		keep := md.activeTx[:0]
		now := md.engine.Now()
		for _, r := range md.activeTx {
			if r.end+grace > now {
				keep = append(keep, r)
			}
		}
		md.activeTx = keep
	})
}

// rtsProtects reports whether this frame will use RTS/CTS based on the
// transmitter's threshold (§4.1.2's mitigation).
func rtsProtects(st *Station, mpdus []*MPDU) bool {
	th := st.cfg.RTSThreshold
	return th > 0 && len(mpdus) > 0 && mpdus[0].Dgram.WireLen() > th
}

// receiverBusy reports whether dst is inside another in-flight
// transmission's range at time start — the condition under which dst
// withholds the CTS. This is how RTS/CTS actually defuses hidden
// terminals: the hidden loser wastes an RTS, not a 5 ms A-MPDU.
func (md *Medium) receiverBusy(tx, dst StationID, start sim.Time) bool {
	for _, o := range md.activeTx {
		if o.src == tx {
			continue
		}
		if o.end <= start || o.start > start {
			continue
		}
		if md.hears(dst, o.src) {
			return true
		}
	}
	return false
}

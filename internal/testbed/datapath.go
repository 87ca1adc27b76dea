package testbed

import (
	"repro/internal/fastack"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// fromWire handles a downlink datagram arriving on the AP's Ethernet port.
func (ap *AP) fromWire(d *packet.Datagram) {
	c := ap.client(d.IP.Dst)
	if c == nil {
		return // not one of ours (e.g. other AP's client): switch floods away
	}
	// Testbed flows are unmarked, so everything rides Best Effort like
	// the field data (§3.2.4).
	const ac = phy.ACBE

	if ap.Agent == nil {
		ap.trackTCPData(d)
		ap.Station.Enqueue(d, c.Station.ID, ac)
		return
	}

	disp := ap.Agent.HandleDownlink(d)
	ap.route(disp, c, ac)
	if disp.Forward {
		ap.trackTCPData(d)
		if disp.Elevate {
			ap.Station.EnqueueFront(d, c.Station.ID, ac)
		} else {
			ap.Station.Enqueue(d, c.Station.ID, ac)
		}
	}
}

// route dispatches injected packets from a FastACK disposition.
func (ap *AP) route(disp fastack.Disposition, c *Client, ac phy.AccessCategory) {
	for _, up := range disp.ToSender {
		ap.tb.wireToSender(up)
	}
	for _, down := range disp.ToClient {
		// Cache re-drives go to the head of the queue: they fill holes the
		// client is stalled on.
		if cc := ap.client(down.IP.Dst); cc != nil {
			ap.Station.EnqueueFront(down, cc.Station.ID, ac)
		}
	}
}

// onWirelessAck receives block-ACK feedback for the AP's own transmissions.
func (ap *AP) onWirelessAck(m *mac.MPDU, ok bool, now sim.Time) {
	if ok && ap.tb.warmupDone {
		ap.tb.Lat80211.Add((now - m.EnqueuedAt).Millis())
	}
	if ap.Agent == nil {
		return
	}
	c := ap.client(m.Dgram.IP.Dst)
	if c != nil && ap.tb.dataInj.DropBAFeedback(c.Index, now) {
		// The block-ACK feedback never reaches the agent: the frame's fate
		// over the air is unchanged (the client got or did not get it), but
		// the fast-ACK pipeline goes blind for the loss burst.
		ap.tb.Faults.BADrops++
		return
	}
	disp := ap.Agent.HandleWirelessAck(m.Dgram, ok)
	if c != nil {
		ap.route(disp, c, m.AC)
	}
}

// fromWireless handles an uplink MPDU (client -> AP): TCP ACKs and any
// client data headed for the wire.
func (ap *AP) fromWireless(m *mac.MPDU) {
	d := m.Dgram
	c := ap.client(d.IP.Src)
	if c != nil && ap.tb.dataInj.Disconnected(c.Index, ap.tb.Engine.Now()) {
		// The client's uplink is dead (roam gap, interference shadow):
		// frames transmit but nothing the client says reaches the AP. The
		// fault is mode-independent — a Baseline AP loses the same ACKs.
		ap.tb.Faults.UplinkDrops++
		return
	}
	ap.trackTCPAck(d)

	if ap.Agent == nil {
		ap.tb.wireToSender(d)
		return
	}
	disp := ap.Agent.HandleUplink(d)
	if c != nil {
		ap.route(disp, c, phy.ACBE)
	}
	if disp.Forward {
		ap.tb.wireToSender(d)
	}
}

// fromAir handles an MPDU arriving at a client station.
func (c *Client) fromAir(m *mac.MPDU) {
	d := m.Dgram
	if d.IP.Dst != c.Addr {
		return
	}
	// Bad-hint emulation (§5.7): the MPDU was 802.11-ACKed (we are inside
	// OnReceive, so the block ACK covered it) but the driver loses it
	// before the transport layer sees it. Observed under FastACK's deep
	// pipelining, so only applied when this AP runs the agent; at most
	// one MPDU per A-MPDU (batch of same-instant deliveries) is lost.
	if r := c.tb.Opt.BadHintRate; r > 0 && c.AP.Agent != nil && d.TCP != nil && d.PayloadLen > 0 {
		now := c.tb.Engine.Now()
		if now != c.badBatchAt {
			c.badBatchAt = now
			c.badBatchArm = c.tb.Engine.Rand().Float64() < r
			c.badBatchUsed = false
		}
		if c.badBatchArm && !c.badBatchUsed {
			c.badBatchUsed = true
			return
		}
	}
	switch {
	case d.TCP != nil && d.TCP.DstPort == uplinkClientPort && c.Uplink != nil:
		c.Uplink.Deliver(d) // server's ACK stream for the client's upload
	case d.TCP != nil && c.Receiver != nil:
		c.Receiver.Deliver(d)
	case d.UDP != nil:
		c.UDPBytes += int64(d.PayloadLen)
	}
}

// trackTCPData records the AP-side forward time of a TCP data segment for
// the paper's TCP-latency metric: "the interval between processing a TCP
// data packet and processing the corresponding TCP ACK" (§4.6.2). A
// retransmission keeps the time of the first forward.
func (ap *AP) trackTCPData(d *packet.Datagram) {
	if d.TCP == nil || d.PayloadLen == 0 {
		return
	}
	if w := ap.probe(d.Flow()); w != nil {
		if t := w.Put(d.TCP.Seq + uint32(d.PayloadLen)); t != nil {
			*t = ap.tb.Engine.Now()
		}
	}
}

// probe returns the latency-probe window of the client that flow is the
// download of, or nil when it is no client's download. The probe follows
// downloads only: an upload's handshake ACK (client:81 → server:20000+i)
// must find nothing to retire.
func (ap *AP) probe(flow packet.Flow) *seqspace.Window[sim.Time] {
	i := clientIndexOf(flow.Dst.Addr)
	if i < 0 || i >= len(ap.unacked) || flow != downloadFlow(i) {
		return nil
	}
	return &ap.unacked[i]
}

// trackTCPAck matches a client TCP ACK against the data segment it ends on
// and retires every segment it covers: ACKs are cumulative, so the table
// only ever holds what is in flight.
func (ap *AP) trackTCPAck(d *packet.Datagram) {
	if d.TCP == nil || !d.TCP.HasFlag(packet.FlagACK) || d.PayloadLen > 0 {
		return
	}
	w := ap.probe(d.Flow().Reverse())
	if w == nil {
		return
	}
	if t0, ok := w.PopThrough(d.TCP.Ack); ok && ap.tb.warmupDone {
		ap.tb.LatTCP.Add((ap.tb.Engine.Now() - t0).Millis())
	}
}

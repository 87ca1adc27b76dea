package tcpstack

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// ReceiverStats accumulates receiver-side counters.
type ReceiverStats struct {
	BytesReceived int64 // in-order bytes delivered to the application
	SegmentsIn    int64
	DupSegments   int64
	OutOfOrder    int64
	AcksSent      int64
}

// Receiver is a TCP receive endpoint: cumulative ACKs with a delayed-ACK
// policy, SACK generation for out-of-order arrivals, and a fixed receive
// buffer whose free space is advertised (scaled) in every ACK. The
// application is a bulk reader that drains in-order data immediately —
// the client side of a download test.
type Receiver struct {
	engine *sim.Engine
	cfg    Config
	out    Output
	local  packet.Endpoint
	remote packet.Endpoint

	state  string // "listen", "established"
	irs    uint32 // initial remote sequence
	rcvNxt uint32
	ooo    seqspace.Ranges // data buffered above a hole

	unackedSegs int
	delAckTimer *sim.Timer

	stats ReceiverStats

	// OnData is invoked as in-order payload is delivered to the app.
	OnData func(now sim.Time, bytes int)
}

// NewReceiver builds a passive receiver for the given flow endpoints.
func NewReceiver(engine *sim.Engine, cfg Config, local, remote packet.Endpoint, out Output) *Receiver {
	if cfg.MSS <= 0 {
		cfg = DefaultConfig()
	}
	r := &Receiver{
		engine: engine, cfg: cfg, out: out,
		local: local, remote: remote,
		state: "listen",
	}
	r.delAckTimer = engine.NewTimer(func(*sim.Engine) {
		if r.unackedSegs > 0 {
			r.sendAck(nil)
		}
	})
	return r
}

// Stats returns a snapshot of the counters.
func (r *Receiver) Stats() ReceiverStats { return r.stats }

// RcvNxt exposes the next expected sequence number (for tests).
func (r *Receiver) RcvNxt() uint32 { return r.rcvNxt }

// window returns the advertisable free buffer in bytes. The bulk reader
// drains in-order data instantly, so only out-of-order bytes occupy the
// buffer.
func (r *Receiver) window() int {
	w := r.cfg.RcvBuf - r.ooo.Bytes()
	if w < 0 {
		w = 0
	}
	return w
}

// scaledWindow converts the byte window to the on-wire (scaled) field.
func (r *Receiver) scaledWindow() uint16 {
	w := r.window() >> r.cfg.WScale
	if w > 65535 {
		w = 65535
	}
	return uint16(w)
}

// Deliver feeds a datagram from the network.
func (r *Receiver) Deliver(d *packet.Datagram) {
	if d.TCP == nil {
		return
	}
	t := d.TCP
	switch r.state {
	case "listen":
		if t.Flags == packet.FlagSYN {
			r.irs = t.Seq
			r.rcvNxt = t.Seq + 1
			r.state = "established" // we treat the final ACK as implicit
			r.sendSynAck()
		}
	case "established":
		if t.Flags == packet.FlagSYN && t.Seq == r.irs {
			// The sender retransmitted its SYN: our SYN-ACK was lost on
			// the way. Answer again, or the flow never opens.
			r.sendSynAck()
			return
		}
		if d.PayloadLen > 0 {
			r.handleData(t, d.PayloadLen)
		}
	}
}

func (r *Receiver) sendSynAck() {
	sa := packet.NewTCPDatagram(r.local, r.remote, 0)
	sa.TCP.Seq = 2000
	sa.TCP.Ack = r.irs + 1
	sa.TCP.Flags = packet.FlagSYN | packet.FlagACK
	sa.TCP.Window = r.scaledWindow()
	sa.TCP.MSS = uint16(r.cfg.MSS)
	sa.TCP.WindowScale = r.cfg.WScale
	sa.TCP.SACKPermitted = r.cfg.SACK
	r.out(sa)
}

func (r *Receiver) handleData(t *packet.TCP, payloadLen int) {
	r.stats.SegmentsIn++
	seq := t.Seq
	end := seq + uint32(payloadLen)

	switch {
	case seqspace.LEQ(end, r.rcvNxt):
		// Entirely old data: spurious retransmission. Re-ACK immediately.
		r.stats.DupSegments++
		r.sendAck(nil)
		return

	case seq == r.rcvNxt:
		// In-order: advance, absorb any contiguous out-of-order ranges.
		r.advance(end)
		r.unackedSegs++
		if r.unackedSegs >= r.cfg.DelACKSegs || r.ooo.Len() > 0 {
			r.sendAck(nil)
		} else {
			r.armDelAck()
		}

	case seqspace.LT(r.rcvNxt, seq):
		// Hole: out-of-order arrival. Immediate duplicate ACK with SACK.
		r.stats.OutOfOrder++
		r.ooo.Add(seq, end)
		r.sendAck(&packet.SACKBlock{Left: seq, Right: end})

	default:
		// Partial overlap below rcvNxt: treat the new portion as in-order.
		r.advance(end)
		r.sendAck(nil)
	}
}

// advance moves rcvNxt to end, then over every buffered range that is now
// contiguous, and delivers the newly in-order bytes to the application.
func (r *Receiver) advance(end uint32) {
	nxt := r.ooo.Absorb(end)
	r.deliverApp(int(nxt - r.rcvNxt))
	r.rcvNxt = nxt
}

func (r *Receiver) deliverApp(n int) {
	r.stats.BytesReceived += int64(n)
	if r.OnData != nil {
		r.OnData(r.engine.Now(), n)
	}
}

// sendAck emits a cumulative ACK, optionally carrying SACK blocks: the
// most recent block first, then up to two more recent holes.
func (r *Receiver) sendAck(latest *packet.SACKBlock) {
	r.delAckTimer.Stop()
	r.unackedSegs = 0
	ack := packet.NewTCPDatagram(r.local, r.remote, 0)
	ack.TCP.Seq = 2001
	ack.TCP.Ack = r.rcvNxt
	ack.TCP.Flags = packet.FlagACK
	ack.TCP.Window = r.scaledWindow()
	if r.cfg.SACK {
		if latest != nil {
			ack.TCP.SACK = append(ack.TCP.SACK, *latest)
		}
		for i := r.ooo.Len() - 1; i >= 0 && len(ack.TCP.SACK) < 4; i-- {
			b := r.ooo.At(i)
			if latest != nil && b == *latest {
				continue
			}
			ack.TCP.SACK = append(ack.TCP.SACK, b)
		}
	}
	r.stats.AcksSent++
	r.out(ack)
}

func (r *Receiver) armDelAck() {
	if !r.delAckTimer.Pending() {
		r.delAckTimer.Reset(r.cfg.DelACKTime)
	}
}

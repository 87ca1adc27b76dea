package tcpstack

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// SenderStats accumulates sender-side counters.
type SenderStats struct {
	BytesAcked      int64
	SegmentsSent    int64
	Retransmits     int64
	FastRetransmits int64
	Timeouts        int64
	RTTSamples      int64
	SRTT            sim.Time
}

// Sender is a bulk-transfer NewReno TCP sender: it always has data to send
// (the ixChariot-style saturating flow of §5.6) and is clocked purely by
// incoming ACKs, exactly the self-clocking behaviour FastACK exploits.
type Sender struct {
	engine *sim.Engine
	cfg    Config
	out    Output
	local  packet.Endpoint
	remote packet.Endpoint

	state string // "idle", "syn-sent", "established"

	iss        uint32
	sndUna     uint32
	sndNxt     uint32
	cwnd       int // bytes
	ssthresh   int
	dupAcks    int
	recover    uint32 // NewReno recovery point
	inRecovery bool

	rwnd       int // peer-advertised window (bytes, already scaled)
	peerWScale int

	srtt, rttvar sim.Time
	rto          sim.Time
	rtoTimer     *sim.Timer
	// sent files the transmit time of every segment in flight under its
	// end-seq, for RTT sampling (Karn's rule: removed on retransmission).
	sent seqspace.Window[sim.Time]

	// sacked tracks SACKed byte ranges beyond sndUna.
	sacked seqspace.Ranges

	stats SenderStats

	// OnCwnd, if set, is called whenever cwnd changes (tcp_probe-style
	// tracing for Fig 14).
	OnCwnd func(now sim.Time, cwndBytes int)
	// OnEstablished is called once the handshake completes.
	OnEstablished func(now sim.Time)
}

// NewSender builds a sender for the given flow endpoints.
func NewSender(engine *sim.Engine, cfg Config, local, remote packet.Endpoint, out Output) *Sender {
	s := &Sender{
		engine: engine, cfg: cfg, out: out,
		local: local, remote: remote,
		state:      "idle",
		iss:        1000,
		rto:        sim.Second,
		peerWScale: 0,
	}
	s.cwnd = initCwnd * MSS
	s.ssthresh = cfg.MaxCwnd * MSS
	s.rwnd = 65535
	s.rtoTimer = engine.NewTimer(func(*sim.Engine) { s.onTimeout() })
	return s
}

// Stats returns a snapshot of the counters.
func (s *Sender) Stats() SenderStats {
	st := s.stats
	st.SRTT = s.srtt
	return st
}

// Cwnd returns the congestion window in bytes.
func (s *Sender) Cwnd() int { return s.cwnd }

// CwndSegments returns the congestion window in MSS units.
func (s *Sender) CwndSegments() int { return s.cwnd / MSS }

// Established reports whether the handshake has completed.
func (s *Sender) Established() bool { return s.state == "established" }

// Start initiates the connection (sends SYN).
func (s *Sender) Start() {
	if s.state != "idle" {
		return
	}
	s.state = "syn-sent"
	s.sndUna = s.iss
	s.sndNxt = s.iss + 1
	syn := packet.NewTCPDatagram(s.local, s.remote, 0)
	syn.TCP.Seq = s.iss
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.Window = 65535
	syn.TCP.MSS = MSS
	syn.TCP.WindowScale = wScale
	syn.TCP.SACKPermitted = true
	s.out(syn)
	s.armRTO()
}

// Deliver feeds a datagram from the network (expected: ACKs / SYN-ACK).
func (s *Sender) Deliver(d *packet.Datagram) {
	if d.TCP == nil {
		return
	}
	t := d.TCP
	switch s.state {
	case "syn-sent":
		if t.HasFlag(packet.FlagSYN | packet.FlagACK) {
			s.completeHandshake(t)
		}
	case "established":
		if t.HasFlag(packet.FlagACK) {
			s.handleAck(t)
		}
	}
}

func (s *Sender) completeHandshake(t *packet.TCP) {
	s.state = "established"
	s.peerWScale = 0
	if t.WindowScale >= 0 {
		s.peerWScale = t.WindowScale
	}
	s.rwnd = int(t.Window) << s.peerWScale
	s.sndUna = s.sndNxt
	// Final ACK of the handshake.
	ack := packet.NewTCPDatagram(s.local, s.remote, 0)
	ack.TCP.Seq = s.sndNxt
	ack.TCP.Ack = t.Seq + 1
	ack.TCP.Flags = packet.FlagACK
	ack.TCP.Window = 65535
	s.out(ack)
	s.rtoTimer.Stop()
	if s.OnEstablished != nil {
		s.OnEstablished(s.engine.Now())
	}
	s.pump()
}

// flight returns unacknowledged bytes in the network.
func (s *Sender) flight() int { return int(s.sndNxt - s.sndUna) }

// window returns the current usable window in bytes.
func (s *Sender) window() int {
	w := s.cwnd
	if s.rwnd < w {
		w = s.rwnd
	}
	return w
}

// pump transmits new segments while the window allows. This is the
// self-clocking release point: it only runs on ACK arrival (and once at
// connection start), so ACK latency variation directly shapes the data
// release pattern (§5.1 problem one).
func (s *Sender) pump() {
	for s.state == "established" && s.flight()+MSS <= s.window() {
		s.sendSegment(s.sndNxt, false)
		s.sndNxt += MSS
	}
}

func (s *Sender) sendSegment(seq uint32, isRetransmit bool) {
	d := packet.NewTCPDatagram(s.local, s.remote, MSS)
	d.TCP.Seq = seq
	d.TCP.Ack = 0
	d.TCP.Flags = packet.FlagACK | packet.FlagPSH
	d.TCP.Window = 65535
	s.out(d)
	s.stats.SegmentsSent++
	end := seq + MSS
	if isRetransmit {
		s.stats.Retransmits++
		s.sent.Remove(end) // Karn: no RTT sample from retransmits
	} else if t := s.sent.Put(end); t != nil {
		*t = s.engine.Now()
	}
	if !s.rtoTimer.Pending() {
		s.armRTO()
	}
}

func (s *Sender) handleAck(t *packet.TCP) {
	ack := t.Ack
	s.rwnd = int(t.Window) << s.peerWScale
	if len(t.SACK) > 0 {
		for _, b := range t.SACK {
			s.sacked.Add(b.Left, b.Right)
		}
	}

	switch {
	case seqspace.LT(s.sndUna, ack): // new data acknowledged
		acked := int(ack - s.sndUna)
		s.stats.BytesAcked += int64(acked)
		s.sampleRTT(ack)
		s.sndUna = ack
		s.sacked.TrimBelow(ack)
		s.dupAcks = 0

		if s.inRecovery {
			if seqspace.LT(ack, s.recover) {
				// Partial ACK: retransmit the next hole immediately.
				s.retransmitHole()
				// Deflate by the amount acked (NewReno partial-ACK rule).
				s.cwnd -= acked
				if s.cwnd < MSS {
					s.cwnd = MSS
				}
				s.notifyCwnd()
			} else {
				s.inRecovery = false
				s.cwnd = s.ssthresh
				s.notifyCwnd()
			}
		} else {
			s.growCwnd(acked)
		}
		s.armRTO()
		s.pump()

	case ack == s.sndUna && s.flight() > 0: // duplicate ACK
		s.dupAcks++
		if s.inRecovery {
			// Window inflation keeps the pipe full during recovery.
			s.cwnd += MSS
			s.notifyCwnd()
			s.pump()
		} else if s.dupAcks == 3 {
			s.enterFastRecovery()
		}

	default:
		// A pure window update (ack == sndUna, nothing in flight — the
		// zero-window reopen a FastACK agent sends after clamping
		// rx'_win, §5.5.2) or a stale ACK. The advertised window was
		// refreshed above; transmit if it reopened.
		s.pump()
	}
}

func (s *Sender) growCwnd(ackedBytes int) {
	max := s.cfg.MaxCwnd * MSS
	if s.cwnd >= max {
		return
	}
	if s.cwnd < s.ssthresh {
		// Slow start: one MSS per ACKed MSS (ABC, L=1).
		s.cwnd += ackedBytes
	} else {
		// Reno congestion avoidance: ~one MSS per RTT.
		s.cwnd += MSS * MSS / s.cwnd
	}
	if s.cwnd > max {
		s.cwnd = max
	}
	s.notifyCwnd()
}

func (s *Sender) enterFastRecovery() {
	s.stats.FastRetransmits++
	s.inRecovery = true
	s.recover = s.sndNxt
	s.ssthresh = s.flight() / 2
	if s.ssthresh < 2*MSS {
		s.ssthresh = 2 * MSS
	}
	s.cwnd = s.ssthresh + 3*MSS
	s.notifyCwnd()
	s.retransmitHole()
	s.armRTO()
}

// retransmitHole resends the first unSACKed segment at or above sndUna.
func (s *Sender) retransmitHole() {
	seq := s.sndUna
	for s.sacked.Contains(seq, seq+MSS) {
		seq += MSS
		if !seqspace.LT(seq, s.sndNxt) {
			return
		}
	}
	s.sendSegment(seq, true)
}

// sampleRTT retires the send times the new cumulative ACK covers and takes
// an RTT sample when the ACK lands exactly on a segment boundary whose
// (first) transmission is on record.
func (s *Sender) sampleRTT(ack uint32) {
	t, ok := s.sent.PopThrough(ack)
	if !ok {
		return
	}
	rtt := s.engine.Now() - t
	s.stats.RTTSamples++
	if s.srtt == 0 {
		s.srtt = rtt
		s.rttvar = rtt / 2
	} else {
		diff := s.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		s.rttvar = (3*s.rttvar + diff) / 4
		s.srtt = (7*s.srtt + rtt) / 8
	}
	s.rto = s.srtt + 4*s.rttvar
	if s.rto < minRTO {
		s.rto = minRTO
	}
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
}

func (s *Sender) armRTO() {
	if s.flight() == 0 && s.state == "established" {
		s.rtoTimer.Stop()
		return
	}
	s.rtoTimer.Reset(s.rto)
}

// onTimeout handles an RTO: the one loss path FastACK leaves to the end
// host (§5.5.1, "timeout-based retransmissions").
func (s *Sender) onTimeout() {
	if s.state == "syn-sent" {
		s.out(s.rebuildSYN())
		s.rto *= 2
		if s.rto > maxRTO {
			s.rto = maxRTO
		}
		s.armRTO()
		return
	}
	if s.flight() == 0 {
		return
	}
	s.stats.Timeouts++
	s.ssthresh = s.flight() / 2
	if s.ssthresh < 2*MSS {
		s.ssthresh = 2 * MSS
	}
	s.cwnd = MSS
	s.inRecovery = false
	s.dupAcks = 0
	s.notifyCwnd()
	s.sendSegment(s.sndUna, true)
	s.rto *= 2
	if s.rto > maxRTO {
		s.rto = maxRTO
	}
	s.armRTO()
}

func (s *Sender) rebuildSYN() *packet.Datagram {
	syn := packet.NewTCPDatagram(s.local, s.remote, 0)
	syn.TCP.Seq = s.iss
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.Window = 65535
	syn.TCP.MSS = MSS
	syn.TCP.WindowScale = wScale
	syn.TCP.SACKPermitted = true
	return syn
}

func (s *Sender) notifyCwnd() {
	if s.OnCwnd != nil {
		s.OnCwnd(s.engine.Now(), s.cwnd)
	}
}

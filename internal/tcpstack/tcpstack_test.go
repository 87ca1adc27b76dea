package tcpstack

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

var (
	srvEP = packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	cliEP = packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 2}, Port: 80}
)

// pipe couples a sender and receiver through a delayed, optionally lossy
// link.
type pipe struct {
	engine *sim.Engine
	s      *Sender
	r      *Receiver
	oneWay sim.Time
	// dropData, if set, decides per data segment whether to drop it.
	dropData func(seq uint32) bool
	dropAcks func(n int) bool
	acksSent int
}

func newPipe(cfg Config, oneWay sim.Time) *pipe {
	p := &pipe{engine: sim.NewEngine(3), oneWay: oneWay}
	p.s = NewSender(p.engine, cfg, srvEP, cliEP, func(d *packet.Datagram) {
		if d.PayloadLen > 0 && p.dropData != nil && p.dropData(d.TCP.Seq) {
			return
		}
		p.engine.After(p.oneWay, func(*sim.Engine) { p.r.Deliver(d) })
	})
	p.r = NewReceiver(p.engine, cfg, cliEP, srvEP, func(d *packet.Datagram) {
		p.acksSent++
		if p.dropAcks != nil && p.dropAcks(p.acksSent) {
			return
		}
		p.engine.After(p.oneWay, func(*sim.Engine) { p.s.Deliver(d) })
	})
	return p
}

func TestHandshake(t *testing.T) {
	p := newPipe(DefaultConfig(), sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(100 * sim.Millisecond)
	if !p.s.Established() {
		t.Fatal("handshake did not complete")
	}
}

// TestLostSynAckReanswered: when the first SYN-ACK is lost the sender
// retransmits its SYN on RTO; the receiver, already established on its
// side, must answer again so the flow opens and carries data.
func TestLostSynAckReanswered(t *testing.T) {
	p := newPipe(DefaultConfig(), sim.Millisecond)
	p.dropAcks = func(n int) bool { return n == 1 } // the SYN-ACK
	p.s.Start()
	p.engine.RunUntil(1500 * sim.Millisecond) // the initial RTO is 1 s
	if !p.s.Established() {
		t.Fatal("flow never opened after a lost SYN-ACK")
	}
	st, rt := p.s.Stats(), p.r.Stats()
	if rt.BytesReceived == 0 || rt.BytesReceived != st.BytesAcked {
		t.Fatalf("after a lost SYN-ACK: acked %d vs received %d", st.BytesAcked, rt.BytesReceived)
	}
}

func TestBulkTransferLossless(t *testing.T) {
	p := newPipe(DefaultConfig(), sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(2 * sim.Second)
	st := p.s.Stats()
	rt := p.r.Stats()
	if st.Retransmits != 0 || st.Timeouts != 0 {
		t.Fatalf("lossless pipe retransmitted: %+v", st)
	}
	if rt.BytesReceived == 0 || rt.BytesReceived != st.BytesAcked {
		t.Fatalf("acked %d vs received %d", st.BytesAcked, rt.BytesReceived)
	}
	// RTT 2 ms, window limited by min(cwnd cap, rcvbuf). With the 512 KiB
	// buffer the pipe carries >= 100 MB/s easily; just check saturation.
	if rt.BytesReceived < 10<<20 {
		t.Fatalf("only %d bytes in 2s over a 2ms pipe", rt.BytesReceived)
	}
	// cwnd should have grown substantially from the initial 10 segments.
	if p.s.CwndSegments() < 100 {
		t.Fatalf("cwnd = %d segments", p.s.CwndSegments())
	}
}

func TestRTTEstimation(t *testing.T) {
	p := newPipe(DefaultConfig(), 5*sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(sim.Second)
	srtt := p.s.Stats().SRTT
	if srtt < 9*sim.Millisecond || srtt > 30*sim.Millisecond {
		t.Fatalf("srtt = %v for a 10 ms pipe", srtt)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	cfg := DefaultConfig()
	p := newPipe(cfg, sim.Millisecond)
	dropped := false
	var droppedSeq uint32
	p.dropData = func(seq uint32) bool {
		// Drop exactly one segment mid-flight, after slow start ramps.
		if !dropped && seq > 1000+uint32(100*cfg.MSS) {
			dropped = true
			droppedSeq = seq
			return true
		}
		return false
	}
	p.s.Start()
	p.engine.RunUntil(2 * sim.Second)
	st := p.s.Stats()
	if !dropped {
		t.Fatal("test never dropped")
	}
	if st.FastRetransmits == 0 {
		t.Fatalf("loss recovered without fast retransmit: %+v", st)
	}
	if st.Timeouts != 0 {
		t.Fatalf("single loss caused an RTO: %+v", st)
	}
	// The receiver must have healed the hole: everything contiguous.
	if got := p.r.RcvNxt(); seqspace.LT(got, droppedSeq) {
		t.Fatalf("receiver stuck at %d before dropped %d", got, droppedSeq)
	}
	if p.r.Stats().OutOfOrder == 0 {
		t.Fatal("receiver saw no reordering?")
	}
}

func TestCwndHalvesOnLoss(t *testing.T) {
	cfg := DefaultConfig()
	p := newPipe(cfg, sim.Millisecond)
	dropped := false
	p.dropData = func(seq uint32) bool {
		if !dropped && seq > 1000+uint32(200*cfg.MSS) {
			dropped = true
			return true
		}
		return false
	}
	peak, minAfterRecovery := 0, 1<<30
	p.s.OnCwnd = func(now sim.Time, cwnd int) {
		inRecoveryOrLater := p.s.Stats().FastRetransmits > 0
		if !inRecoveryOrLater && cwnd > peak {
			peak = cwnd
		}
		if inRecoveryOrLater && !p.s.inRecovery && cwnd < minAfterRecovery {
			minAfterRecovery = cwnd
		}
	}
	p.s.Start()
	p.engine.RunUntil(sim.Second)
	if !dropped {
		t.Fatal("never dropped")
	}
	// Exiting recovery sets cwnd = ssthresh = flight/2 (NewReno): the
	// post-recovery cwnd must sit well below the pre-loss peak.
	if minAfterRecovery >= peak*3/4 {
		t.Fatalf("cwnd after recovery %d, pre-loss peak %d", minAfterRecovery, peak)
	}
}

func TestBurstLossRecoversViaSACK(t *testing.T) {
	cfg := DefaultConfig()
	p := newPipe(cfg, sim.Millisecond)
	drops := 0
	p.dropData = func(seq uint32) bool {
		// Drop a burst of 5 distinct segments once.
		if drops < 5 && seq > 1000+uint32(150*cfg.MSS) && seq < 1000+uint32(200*cfg.MSS) {
			drops++
			return true
		}
		return false
	}
	p.s.Start()
	p.engine.RunUntil(3 * sim.Second)
	st := p.s.Stats()
	rt := p.r.Stats()
	if drops != 5 {
		t.Fatalf("dropped %d", drops)
	}
	if rt.BytesReceived < 10<<20 {
		t.Fatalf("transfer stalled after burst loss: %d bytes", rt.BytesReceived)
	}
	if st.Retransmits < 5 {
		t.Fatalf("only %d retransmits for 5 losses", st.Retransmits)
	}
}

func TestRTOWhenAllAcksLost(t *testing.T) {
	cfg := DefaultConfig()
	p := newPipe(cfg, sim.Millisecond)
	blackout := false
	p.dropAcks = func(n int) bool { return blackout }
	p.s.Start()
	p.engine.RunUntil(200 * sim.Millisecond)
	blackout = true
	p.engine.RunUntil(1200 * sim.Millisecond)
	if p.s.Stats().Timeouts == 0 {
		t.Fatal("no RTO during total ACK blackout")
	}
	if p.s.Cwnd() > cfg.MSS {
		t.Fatalf("cwnd after RTO = %d, want 1 MSS", p.s.Cwnd())
	}
	blackout = false
	before := p.r.Stats().BytesReceived
	p.engine.RunUntil(3 * sim.Second)
	if p.r.Stats().BytesReceived <= before {
		t.Fatal("did not recover after blackout lifted")
	}
}

// TestRTOBackoffRearmsFromCallback: a SYN that is never answered is resent
// from inside the timeout callback, which re-arms the very timer that is
// firing. The instants are the exponential backoff from the initial 1 s RTO
// to MaxRTO, and between them exactly one timeout is queued.
func TestRTOBackoffRearmsFromCallback(t *testing.T) {
	engine := sim.NewEngine(3)
	var syns []sim.Time
	s := NewSender(engine, DefaultConfig(), srvEP, cliEP, func(d *packet.Datagram) {
		if d.TCP.Flags != packet.FlagSYN {
			t.Fatalf("sent flags %#x before the handshake", d.TCP.Flags)
		}
		syns = append(syns, engine.Now())
		if engine.Queued() != 0 {
			t.Fatalf("SYN at %v: %d events queued while the timeout fires", engine.Now(), engine.Queued())
		}
	})
	s.Start()
	engine.RunUntil(200 * sim.Second)
	want := []sim.Time{0, 1, 3, 7, 15, 31, 63, 123, 183}
	if len(syns) != len(want) {
		t.Fatalf("SYNs at %v, want %d of them", syns, len(want))
	}
	for i, at := range want {
		if syns[i] != at*sim.Second {
			t.Fatalf("SYN %d at %v, want %v (all: %v)", i, syns[i], at*sim.Second, syns)
		}
	}
	if engine.Queued() != 1 || engine.Fired() != uint64(len(want)-1) {
		t.Fatalf("%d queued, %d fired; want the one pending timeout and %d firings", engine.Queued(), engine.Fired(), len(want)-1)
	}
}

func TestDelayedAckCoalescing(t *testing.T) {
	cfg := DefaultConfig()
	p := newPipe(cfg, sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(sim.Second)
	st := p.s.Stats()
	rt := p.r.Stats()
	// Roughly one ACK per two segments (plus timers): the ACK count must
	// be well below the segment count.
	if rt.AcksSent*3 > st.SegmentsSent*2 {
		t.Fatalf("delayed ACK not working: %d acks for %d segments", rt.AcksSent, st.SegmentsSent)
	}
}

func TestReceiverWindowLimitsFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RcvBuf = 64 << 10 // tiny window
	p := newPipe(cfg, 50*sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(3 * sim.Second)
	// Throughput bounded by rwnd/RTT = 64 KiB / 100 ms = 640 KB/s.
	got := p.r.Stats().BytesReceived
	limit := int64(640 << 10 * 3.3)
	if got > limit {
		t.Fatalf("received %d, exceeds rwnd bound %d", got, limit)
	}
	if got < limit/8 {
		t.Fatalf("received %d, window-limited flow far too slow", got)
	}
	if p.s.Stats().Timeouts > 0 {
		t.Fatal("window-limited flow should not time out")
	}
}

func TestMaxCwndCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxCwnd = 50
	p := newPipe(cfg, sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(2 * sim.Second)
	if p.s.CwndSegments() > 50 {
		t.Fatalf("cwnd %d exceeds cap 50", p.s.CwndSegments())
	}
}

func TestSpuriousRetransmissionReAcked(t *testing.T) {
	p := newPipe(DefaultConfig(), sim.Millisecond)
	p.s.Start()
	p.engine.RunUntil(100 * sim.Millisecond)
	// Inject an old segment directly: receiver must re-ACK, not deliver.
	before := p.r.Stats().BytesReceived
	old := packet.NewTCPDatagram(srvEP, cliEP, MSS)
	old.TCP.Seq = 1001 // the very first data byte, long since received
	old.TCP.Flags = packet.FlagACK
	p.r.Deliver(old)
	if p.r.Stats().BytesReceived != before {
		t.Fatal("duplicate delivered to app")
	}
	if p.r.Stats().DupSegments == 0 {
		t.Fatal("dup not counted")
	}
}

func TestUDPSourceRate(t *testing.T) {
	engine := sim.NewEngine(1)
	var bytes int64
	src := NewUDPSource(engine, srvEP, cliEP, 1448, 80, func(d *packet.Datagram) {
		bytes += int64(d.PayloadLen)
	})
	engine.RunUntil(sim.Second)
	src.Stop()
	mbps := float64(bytes) * 8 / 1e6
	if mbps < 70 || mbps > 90 {
		t.Fatalf("UDP source rate = %.1f Mbps, want ~80", mbps)
	}
	at := engine.Now()
	engine.RunUntil(at + sim.Second)
	after := float64(bytes) * 8 / 1e6
	if after > mbps+1 {
		t.Fatal("UDP source kept sending after Stop")
	}
}

func TestSeqArithmetic(t *testing.T) {
	if !seqspace.LT(0xffffff00, 0x00000010) {
		t.Fatal("wraparound comparison broken")
	}
	if seqspace.LT(5, 5) || !seqspace.LEQ(5, 5) {
		t.Fatal("equality cases")
	}
	if seqspace.Max(10, 3) != 10 || seqspace.Max(0xfffffff0, 5) != 5 {
		t.Fatal("Max")
	}
}

func TestCubicTransferAndRecovery(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Congestion = Cubic
	p := newPipe(cfg, 5*sim.Millisecond)
	dropped := 0
	p.dropData = func(seq uint32) bool {
		// One loss episode mid-transfer.
		if dropped == 0 && seq > 1000+uint32(300*cfg.MSS) {
			dropped++
			return true
		}
		return false
	}
	p.s.Start()
	p.engine.RunUntil(3 * sim.Second)
	st := p.s.Stats()
	if dropped == 0 {
		t.Fatal("never dropped")
	}
	if st.FastRetransmits == 0 || st.Timeouts != 0 {
		t.Fatalf("cubic recovery: %+v", st)
	}
	if st.BytesAcked < 20<<20 {
		t.Fatalf("cubic moved only %d bytes", st.BytesAcked)
	}
	// After recovery, the cubic window must regrow past the reduced
	// point: cwnd should be well above 0.7*wMax eventually.
	if p.s.CwndSegments() < 50 {
		t.Fatalf("cubic cwnd stuck at %d", p.s.CwndSegments())
	}
}

func TestCubicBeatsRenoOnLongFatPipe(t *testing.T) {
	// With periodic losses on a long-RTT pipe, CUBIC's cubic regrowth
	// recovers window faster than Reno's one-MSS-per-RTT.
	run := func(cc Congestion) int64 {
		cfg := DefaultConfig()
		cfg.Congestion = cc
		cfg.MaxCwnd = 4000
		cfg.RcvBuf = 8 << 20
		p := newPipe(cfg, 40*sim.Millisecond)
		n := 0
		p.dropData = func(seq uint32) bool {
			n++
			return n%4000 == 0 // periodic loss
		}
		p.s.Start()
		p.engine.RunUntil(20 * sim.Second)
		return p.s.Stats().BytesAcked
	}
	reno, cubic := run(Reno), run(Cubic)
	if cubic <= reno {
		t.Fatalf("cubic %d <= reno %d on a long fat pipe", cubic, reno)
	}
}

// A segment that partially overlaps buffered out-of-order data occupies only
// its new bytes, and once the hole fills the whole buffer is free again. The
// receiver used to count the overlap twice and never give it back: after
// [2000,3000), [2500,3500) and then the hole, it advertised 500 bytes short
// for the rest of the connection.
func TestOverlappingOutOfOrderFreesTheWholeWindow(t *testing.T) {
	cfg := DefaultConfig()
	var acks []*packet.Datagram
	r := NewReceiver(sim.NewEngine(1), cfg, cliEP, srvEP, func(d *packet.Datagram) { acks = append(acks, d) })
	syn := packet.NewTCPDatagram(srvEP, cliEP, 0)
	syn.TCP.Seq = 999
	syn.TCP.Flags = packet.FlagSYN
	r.Deliver(syn)
	full := acks[0].TCP.Window // the SYN-ACK advertises the empty buffer

	deliver := func(seq uint32, n int) uint16 {
		d := packet.NewTCPDatagram(srvEP, cliEP, n)
		d.TCP.Seq = seq
		d.TCP.Flags = packet.FlagACK
		r.Deliver(d)
		return acks[len(acks)-1].TCP.Window
	}
	deliver(2000, 1000)
	if w := deliver(2500, 1000); w != uint16((cfg.RcvBuf-1500)>>cfg.WScale) {
		t.Fatalf("1500 bytes buffered, advertised %d", int(w)<<cfg.WScale)
	}
	deliver(1000, 1000) // fills the hole; the ACK is delayed until the next segment
	if w := deliver(3500, 1000); r.RcvNxt() != 4500 || w != full {
		t.Fatalf("hole filled: rcvNxt %d, advertised %d of %d", r.RcvNxt(), int(w)<<cfg.WScale, int(full)<<cfg.WScale)
	}
}

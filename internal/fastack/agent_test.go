package fastack

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

var (
	serverEP = packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	clientEP = packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 7}, Port: 80}
)

const segLen = 1000

// harness drives an agent with a controllable clock.
type harness struct {
	a   *Agent
	now sim.Time
}

func newHarness(cfg Config) *harness {
	h := &harness{}
	h.a = New(cfg, func() sim.Time { return h.now })
	return h
}

// handshake walks the agent through SYN / SYN-ACK so the flow state is
// seeded with ISS 1000 (sender) and window scaling.
func (h *harness) handshake(t *testing.T) {
	t.Helper()
	syn := packet.NewTCPDatagram(serverEP, clientEP, 0)
	syn.TCP.Seq = 999 // first data byte will be 1000
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.WindowScale = 7
	if d := h.a.HandleDownlink(syn); !d.Forward {
		t.Fatal("SYN must be forwarded")
	}
	synAck := packet.NewTCPDatagram(clientEP, serverEP, 0)
	synAck.TCP.Flags = packet.FlagSYN | packet.FlagACK
	synAck.TCP.Window = 4096 // 4096 << 7 = 512 KiB
	synAck.TCP.WindowScale = 7
	synAck.TCP.SACKPermitted = true
	if d := h.a.HandleUplink(synAck); !d.Forward {
		t.Fatal("SYN-ACK must be forwarded")
	}
}

// data builds a downlink data segment with the given sequence number.
func data(seq uint32) *packet.Datagram {
	d := packet.NewTCPDatagram(serverEP, clientEP, segLen)
	d.TCP.Seq = seq
	d.TCP.Flags = packet.FlagACK | packet.FlagPSH
	return d
}

// clientAck builds a pure client ACK.
func clientAck(ack uint32, window uint16) *packet.Datagram {
	d := packet.NewTCPDatagram(clientEP, serverEP, 0)
	d.TCP.Ack = ack
	d.TCP.Flags = packet.FlagACK
	d.TCP.Window = window
	return d
}

func TestCaseIIIInOrderData(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	for i := 0; i < 3; i++ {
		d := data(1000 + uint32(i*segLen))
		disp := h.a.HandleDownlink(d)
		if !disp.Forward || disp.Elevate || len(disp.ToSender) != 0 {
			t.Fatalf("case iii segment %d: %+v", i, disp)
		}
	}
	f := h.a.flows[data(1000).Flow()]
	if f.seqExp != 4000 || f.seqHigh != 4000 {
		t.Fatalf("seqExp=%d seqHigh=%d, want 4000", f.seqExp, f.seqHigh)
	}
	if f.cache.Len() != 3 {
		t.Fatalf("cache has %d segments", f.cache.Len())
	}
}

func TestFastAckOnWirelessAck(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0, d1 := data(1000), data(2000)
	h.a.HandleDownlink(d0)
	h.a.HandleDownlink(d1)

	disp := h.a.HandleWirelessAck(d0, true)
	if len(disp.ToSender) != 1 {
		t.Fatalf("expected a fast ACK, got %+v", disp)
	}
	fa := disp.ToSender[0]
	if fa.TCP.Ack != 2000 {
		t.Fatalf("fast ACK = %d, want 2000", fa.TCP.Ack)
	}
	// It impersonates the client.
	if fa.IP.Src != clientEP.Addr || fa.IP.Dst != serverEP.Addr {
		t.Fatalf("fast ACK addressing: %v", fa)
	}
	// Second delivery advances cumulatively.
	disp = h.a.HandleWirelessAck(d1, true)
	if len(disp.ToSender) != 1 || disp.ToSender[0].TCP.Ack != 3000 {
		t.Fatalf("cumulative fast ACK: %+v", disp)
	}
	if h.a.Stats().FastAcksSent != 2 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

// TestQSeqContinuity reproduces Fig 12's ordering rule: 802.11 ACKs
// arriving out of order must not produce a fast ACK past a hole.
func TestQSeqContinuity(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0, d1, d2 := data(1000), data(2000), data(3000)
	for _, d := range []*packet.Datagram{d0, d1, d2} {
		h.a.HandleDownlink(d)
	}
	// d1 and d2 are 802.11-ACKed first (d0's MPDU failed in the A-MPDU).
	if disp := h.a.HandleWirelessAck(d1, true); len(disp.ToSender) != 0 {
		t.Fatalf("fast ACK before continuity: %+v", disp)
	}
	if disp := h.a.HandleWirelessAck(d2, true); len(disp.ToSender) != 0 {
		t.Fatalf("fast ACK before continuity: %+v", disp)
	}
	// d0 arrives: one cumulative fast ACK to 4000 covers all three.
	disp := h.a.HandleWirelessAck(d0, true)
	if len(disp.ToSender) != 1 || disp.ToSender[0].TCP.Ack != 4000 {
		t.Fatalf("cumulative drain: %+v", disp)
	}
}

func TestCaseISpuriousRetransmissionDropped(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0 := data(1000)
	h.a.HandleDownlink(d0)
	h.a.HandleWirelessAck(d0, true) // fast-acked to 2000

	// The sender retransmits the already fast-ACKed segment.
	disp := h.a.HandleDownlink(data(1000))
	if disp.Forward {
		t.Fatal("case i retransmission must be dropped")
	}
	if h.a.Stats().SpuriousDrops != 1 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

func TestCaseIIElevatedForward(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	h.a.HandleDownlink(data(2000))
	// Neither 802.11-ACKed yet; an end-to-end retransmission of 1000 is
	// seqFack <= seq < seqExp: forward with priority elevation.
	disp := h.a.HandleDownlink(data(1000))
	if !disp.Forward || !disp.Elevate {
		t.Fatalf("case ii: %+v", disp)
	}
	if h.a.Stats().ElevatedForwards != 1 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

// TestCaseIVUpstreamHole verifies §5.5.3: a sequence gap at the AP
// triggers an emulated duplicate ACK (with SACK) toward the sender.
func TestCaseIVUpstreamHole(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	// 2000 lost upstream; 3000 arrives.
	disp := h.a.HandleDownlink(data(3000))
	if !disp.Forward {
		t.Fatal("hole data still forwards")
	}
	if len(disp.ToSender) != 1 {
		t.Fatalf("expected hole dup-ACK: %+v", disp)
	}
	dup := disp.ToSender[0]
	if dup.TCP.Ack != 2000 {
		t.Fatalf("dup ACK = %d, want 2000 (the missing seq)", dup.TCP.Ack)
	}
	if len(dup.TCP.SACK) != 1 || dup.TCP.SACK[0].Left != 3000 || dup.TCP.SACK[0].Right != 4000 {
		t.Fatalf("SACK = %+v", dup.TCP.SACK)
	}
	// The retransmission of 2000 fills the hole: seqExp jumps past the
	// buffered range.
	h.a.HandleDownlink(data(2000))
	f := h.a.flows[data(1000).Flow()]
	if f.seqExp != 4000 {
		t.Fatalf("seqExp after hole fill = %d, want 4000", f.seqExp)
	}
	if f.hasHole() {
		t.Fatal("hole not cleared")
	}
}

func TestClientAckSuppression(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0 := data(1000)
	h.a.HandleDownlink(d0)
	h.a.HandleWirelessAck(d0, true)

	// Client's own cumulative ACK for fast-acked data: suppressed.
	disp := h.a.HandleUplink(clientAck(2000, 4096))
	if disp.Forward {
		t.Fatal("duplicate client ACK must be suppressed")
	}
	if h.a.Stats().ClientAcksDropped != 1 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
	// Cache purged up to the acknowledged point.
	f := h.a.flows[d0.Flow()]
	if f.cache.Len() != 0 {
		t.Fatalf("cache not purged: %d entries", f.cache.Len())
	}
	if f.seqTCP != 2000 {
		t.Fatalf("seqTCP = %d", f.seqTCP)
	}
}

func TestClientAckBeyondFastAckForwards(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	// No 802.11 ACK yet, but the client acks 2000 (e.g. state imported
	// from a roam). Information the sender lacks: forward it.
	disp := h.a.HandleUplink(clientAck(2000, 4096))
	if !disp.Forward {
		t.Fatal("ACK beyond seqFack must be forwarded")
	}
}

func TestDupAckTriggersLocalRetransmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupAckThreshold = 2
	h := newHarness(cfg)
	h.handshake(t)
	d0, d1, d2 := data(1000), data(2000), data(3000)
	for _, d := range []*packet.Datagram{d0, d1, d2} {
		h.a.HandleDownlink(d)
		h.a.HandleWirelessAck(d, true)
	}
	// The client's transport never got 2000 (bad hint): it acks 2000
	// repeatedly.
	h.a.HandleUplink(clientAck(2000, 4096))
	h.a.HandleUplink(clientAck(2000, 4096)) // dup #1
	disp := h.a.HandleUplink(clientAck(2000, 4096))
	if len(disp.ToClient) == 0 {
		t.Fatalf("no local retransmit after threshold: %+v", disp)
	}
	if disp.ToClient[0].TCP.Seq != 2000 {
		t.Fatalf("retransmitted %d, want 2000", disp.ToClient[0].TCP.Seq)
	}
	if h.a.Stats().LocalRetransmits == 0 || h.a.Stats().BadHints == 0 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

func TestRtxGuardAbsorbsDupAckBursts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupAckThreshold = 2
	cfg.RtxGuard = 15 * sim.Millisecond
	h := newHarness(cfg)
	h.handshake(t)
	for _, d := range []*packet.Datagram{data(1000), data(2000), data(3000)} {
		h.a.HandleDownlink(d)
		h.a.HandleWirelessAck(d, true)
	}
	h.a.HandleUplink(clientAck(2000, 4096))
	retransmits := 0
	// A 30-dup-ACK burst (one per A-MPDU subframe) within the guard.
	for i := 0; i < 30; i++ {
		h.now += sim.Millisecond / 4
		disp := h.a.HandleUplink(clientAck(2000, 4096))
		retransmits += len(disp.ToClient)
	}
	if retransmits != 1 {
		t.Fatalf("guard failed: %d retransmits in one burst", retransmits)
	}
	// After the guard expires, the hole may be redriven once more.
	h.now += 20 * sim.Millisecond
	h.a.HandleUplink(clientAck(2000, 4096))
	disp := h.a.HandleUplink(clientAck(2000, 4096))
	if len(disp.ToClient) != 1 {
		t.Fatalf("guard never re-opens: %+v", disp)
	}
}

// TestWindowClamp checks §5.5.2: rx'_win = rx_win − out_bytes.
func TestWindowClamp(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	// Client advertised 4096<<7 = 524288 bytes.
	d0 := data(1000)
	h.a.HandleDownlink(d0)
	disp := h.a.HandleWirelessAck(d0, true)
	fa := disp.ToSender[0]
	// out_bytes = seqHigh(2000) - seqTCP(1000) = 1000.
	wantBytes := 524288 - 1000
	gotBytes := int(fa.TCP.Window) << 7
	// Scaling rounds down by up to (1<<7)-1 bytes.
	if gotBytes > wantBytes || gotBytes < wantBytes-127 {
		t.Fatalf("advertised %d bytes, want ~%d", gotBytes, wantBytes)
	}
}

func TestWindowZeroThenUpdate(t *testing.T) {
	cfg := DefaultConfig()
	h := newHarness(cfg)
	h.handshake(t)
	// Shrink the client window by re-advertising a small value.
	h.a.HandleUplink(clientAck(1000, 16)) // 16<<7 = 2048 bytes
	d0, d1 := data(1000), data(2000)
	h.a.HandleDownlink(d0)
	h.a.HandleDownlink(d1)
	// 2000 outstanding of 2048: the fast ACK must advertise ~0.
	disp := h.a.HandleWirelessAck(d0, true)
	if w := disp.ToSender[0].TCP.Window; w != 0 {
		t.Fatalf("window = %d, want 0", w)
	}
	// Client acks everything: a window update must be generated.
	disp = h.a.HandleUplink(clientAck(3000, 4096))
	if len(disp.ToSender) != 1 {
		t.Fatalf("no window update: %+v", disp)
	}
	if w := int(disp.ToSender[0].TCP.Window) << 7; w < 100000 {
		t.Fatalf("window update too small: %d", w)
	}
	if h.a.Stats().WindowUpdates != 1 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

func TestFlowQueueBudgetClampsWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FlowQueueBudget = 3 * segLen
	h := newHarness(cfg)
	h.handshake(t)
	for i := uint32(0); i < 4; i++ {
		h.a.HandleDownlink(data(1000 + i*segLen))
	}
	// 4 segments un-802.11-acked, budget 3: window must clamp to 0 on
	// the next fast ACK even though the client buffer is huge.
	disp := h.a.HandleWirelessAck(data(1000), true)
	// After this ACK, seqHigh-seqFack = 3 segments = budget: window 0.
	if w := disp.ToSender[0].TCP.Window; w != 0 {
		t.Fatalf("window = %d, want 0 (budget-clamped)", w)
	}
}

func TestWirelessDropRedrive(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0 := data(1000)
	h.a.HandleDownlink(d0)
	disp := h.a.HandleWirelessAck(d0, false) // MAC gave up
	if len(disp.ToClient) != 1 || disp.ToClient[0].TCP.Seq != 1000 {
		t.Fatalf("no cache redrive: %+v", disp)
	}
	if h.a.Stats().WirelessRedrives != 1 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
	// The redrive is a clone, not the cached packet itself.
	if disp.ToClient[0] == h.a.flows[d0.Flow()].cache.At(0).V {
		t.Fatal("redrive aliases the cache")
	}
}

func TestRoamingExportImport(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0, d1 := data(1000), data(2000)
	h.a.HandleDownlink(d0)
	h.a.HandleDownlink(d1)
	h.a.HandleWirelessAck(d0, true)

	ex, ok := h.a.Export(d0.Flow())
	if !ok {
		t.Fatal("export failed")
	}
	if ex.SeqFack != 2000 || ex.SeqExp != 3000 || len(ex.Cache) != 2 {
		t.Fatalf("exported: %+v", ex)
	}

	// Roam-to AP imports and can serve a duplicate ACK from its cache.
	h2 := newHarness(DefaultConfig())
	h2.a.Import(ex)
	f := h2.a.flows[d0.Flow()]
	if f.seqFack != 2000 || f.cache.Len() != 2 {
		t.Fatalf("imported: %v", f)
	}
	if h2.a.flows[d0.Flow()].cacheLookup(2000) == nil {
		t.Fatal("imported cache lookup failed")
	}
}

func TestSweepExpiresIdleFlows(t *testing.T) {
	cfg := DefaultConfig()
	cfg.IdleExpiry = sim.Minute
	h := newHarness(cfg)
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	if h.a.FlowCount() != 1 {
		t.Fatalf("flows = %d", h.a.FlowCount())
	}
	h.now = 30 * sim.Second
	if removed := h.a.Sweep(); removed != 0 {
		t.Fatal("swept a fresh flow")
	}
	h.now = 5 * sim.Minute
	if removed := h.a.Sweep(); removed != 1 {
		t.Fatalf("sweep removed %d", removed)
	}
}

func TestRSTClearsFlow(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	rst := packet.NewTCPDatagram(serverEP, clientEP, 0)
	rst.TCP.Flags = packet.FlagRST
	if d := h.a.HandleDownlink(rst); !d.Forward {
		t.Fatal("RST must forward")
	}
	if h.a.FlowCount() != 0 {
		t.Fatalf("flow survived RST: %d", h.a.FlowCount())
	}
}

func TestNonTCPAndClientDataPassThrough(t *testing.T) {
	h := newHarness(DefaultConfig())
	udp := packet.NewUDPDatagram(serverEP, clientEP, 100)
	if d := h.a.HandleDownlink(udp); !d.Forward {
		t.Fatal("UDP downlink must forward")
	}
	if d := h.a.HandleUplink(packet.NewUDPDatagram(clientEP, serverEP, 100)); !d.Forward {
		t.Fatal("UDP uplink must forward")
	}
	// Client data (uplink payload) passes through untouched.
	h.handshake(t)
	up := packet.NewTCPDatagram(clientEP, serverEP, 50)
	up.TCP.Flags = packet.FlagACK | packet.FlagPSH
	if d := h.a.HandleUplink(up); !d.Forward {
		t.Fatal("client data must forward")
	}
}

func TestMidFlowAdoption(t *testing.T) {
	// No handshake observed: the agent adopts the flow at the first data
	// segment.
	h := newHarness(DefaultConfig())
	d := data(555000)
	disp := h.a.HandleDownlink(d)
	if !disp.Forward {
		t.Fatal("adopted data must forward")
	}
	f := h.a.flows[d.Flow()]
	if !f.initialized || f.seqExp != 555000+segLen {
		t.Fatalf("adoption state: %v", f)
	}
	// Wireless ACK still produces a fast ACK.
	if disp := h.a.HandleWirelessAck(d, true); len(disp.ToSender) != 1 {
		t.Fatalf("no fast ACK after adoption: %+v", disp)
	}
}

func TestCacheEviction(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CacheLimitBytes = 2 * segLen
	h := newHarness(cfg)
	h.handshake(t)
	for i := uint32(0); i < 4; i++ {
		h.a.HandleDownlink(data(1000 + i*segLen))
	}
	f := h.a.flows[data(1000).Flow()]
	if f.cacheBytes > 2*segLen {
		t.Fatalf("cache over limit: %d", f.cacheBytes)
	}
	if h.a.Stats().CacheEvictions == 0 {
		t.Fatal("no evictions recorded")
	}
	// The newest segments survive.
	if f.cacheLookup(1000+3*uint32(segLen)) == nil {
		t.Fatal("newest segment evicted")
	}
}

// Property: for any order of 802.11 ACK arrivals over a contiguous block
// of segments, the final fast-ack point is the end of the block, no fast
// ACK ever exceeds it, and fast acks are monotonically increasing.
func TestQuickQSeqAnyOrder(t *testing.T) {
	f := func(perm []uint8, nRaw uint8) bool {
		n := int(nRaw%12) + 2
		h := newHarness(DefaultConfig())
		ht := &testing.T{}
		h.handshake(ht)
		segs := make([]*packet.Datagram, n)
		for i := 0; i < n; i++ {
			segs[i] = data(1000 + uint32(i*segLen))
			h.a.HandleDownlink(segs[i])
		}
		// Build a permutation from the fuzz input.
		order := make([]int, n)
		for i := range order {
			order[i] = i
		}
		for i, p := range perm {
			j := int(p) % n
			k := i % n
			order[j], order[k] = order[k], order[j]
		}
		last := uint32(0)
		for _, idx := range order {
			disp := h.a.HandleWirelessAck(segs[idx], true)
			for _, fa := range disp.ToSender {
				if fa.TCP.Ack <= last {
					return false // not monotonic
				}
				last = fa.TCP.Ack
			}
		}
		return last == uint32(1000+n*segLen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateWirelessAckIgnored(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0 := data(1000)
	h.a.HandleDownlink(d0)
	h.a.HandleWirelessAck(d0, true)
	// The MAC can report the same MPDU delivered twice (retry + stale
	// BA); no second fast ACK may be emitted.
	disp := h.a.HandleWirelessAck(d0, true)
	if len(disp.ToSender) != 0 {
		t.Fatalf("duplicate 802.11 ACK produced traffic: %+v", disp)
	}
}

// TestFlowSelectionThreshold pins footnote 10's "mark all flows", the only
// flow selection the agent has: every TCP flow is fast-ACKed and its
// client's ACKs suppressed from its first data segment — with or without a
// handshake seen.
func TestFlowSelectionThreshold(t *testing.T) {
	h := newHarness(DefaultConfig())
	h.handshake(t)
	d0 := data(1000)
	if disp := h.a.HandleDownlink(d0); !disp.Forward || disp.Elevate || len(disp.ToSender) != 0 {
		t.Fatalf("first segment: %+v", disp)
	}
	if disp := h.a.HandleWirelessAck(d0, true); len(disp.ToSender) != 1 || disp.ToSender[0].TCP.Ack != 2000 {
		t.Fatalf("first segment not fast-ACKed: %+v", disp)
	}
	if disp := h.a.HandleUplink(clientAck(2000, 4096)); disp.Forward {
		t.Fatal("client ACK for the first segment not suppressed")
	}

	// A flow adopted mid-stream is selected just the same.
	srv, cli := benchEPs(1)
	mid := packet.NewTCPDatagram(srv, cli, segLen)
	mid.TCP.Seq = 777000
	mid.TCP.Flags = packet.FlagACK | packet.FlagPSH
	h.a.HandleDownlink(mid)
	if disp := h.a.HandleWirelessAck(mid, true); len(disp.ToSender) != 1 || disp.ToSender[0].TCP.Ack != 778000 {
		t.Fatalf("adopted flow's first segment not fast-ACKed: %+v", disp)
	}
	up := packet.NewTCPDatagram(cli, srv, 0)
	up.TCP.Flags = packet.FlagACK
	up.TCP.Ack = 778000
	if disp := h.a.HandleUplink(up); disp.Forward {
		t.Fatal("adopted flow's client ACK not suppressed")
	}
	if s := h.a.Stats(); s.FastAcksSent != 2 || s.ClientAcksDropped != 2 || s.FlowsTracked != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

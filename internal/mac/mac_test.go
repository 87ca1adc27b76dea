package mac

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

func newTestMedium(snr float64) *Medium {
	return NewMedium(sim.NewEngine(11), snr)
}

func stationCfg(name string) StationConfig {
	return StationConfig{Name: name, NSS: 2, Width: spectrum.W80, GI: phy.SGI}
}

func dgram(n int) *packet.Datagram {
	return packet.NewTCPDatagram(
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000},
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 1}, Port: 80}, n)
}

func TestSingleFrameDelivery(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))

	var delivered *MPDU
	var ackOK bool
	rx.OnReceive = func(m *MPDU, now sim.Time) { delivered = m }
	tx.OnDelivered = func(m *MPDU, ok bool, now sim.Time) { ackOK = ok }

	d := dgram(1400)
	if !tx.Enqueue(d, rx.ID, phy.ACBE) {
		t.Fatal("enqueue rejected")
	}
	md.Engine().Run()

	if delivered == nil || delivered.Dgram != d {
		t.Fatal("datagram not delivered")
	}
	if !ackOK {
		t.Fatal("no 802.11 ACK callback")
	}
	st := tx.Stats()
	if st.TxFrames != 1 || st.Delivered != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if md.Stats().BusyUs <= 0 {
		t.Fatal("no airtime accounted")
	}
}

func TestAggregationFromQueueDepth(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	rx.OnReceive = func(*MPDU, sim.Time) {}

	// 40 packets queued before the medium is kicked: with a contention
	// round they should leave in one (or very few) A-MPDUs.
	var reports []FrameReport
	md.OnFrame = func(fr FrameReport) { reports = append(reports, fr) }
	for i := 0; i < 40; i++ {
		tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	if len(reports) == 0 {
		t.Fatal("no frames")
	}
	if reports[0].AggSize < 30 {
		t.Fatalf("first aggregate = %d, want ~40 (queue-depth driven)", reports[0].AggSize)
	}
	st := tx.Stats()
	if st.MeanAggregate() < 10 {
		t.Fatalf("mean aggregate = %.1f", st.MeanAggregate())
	}
}

func TestPerMPDUErrorsRetryAndRecover(t *testing.T) {
	md := newTestMedium(18) // marginal link: real PER at chosen rates
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	got := 0
	rx.OnReceive = func(*MPDU, sim.Time) { got++ }
	fails := 0
	tx.OnDelivered = func(m *MPDU, ok bool, now sim.Time) {
		if !ok {
			fails++
		}
	}
	const n = 200
	for i := 0; i < n; i++ {
		tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	if got+fails != n {
		t.Fatalf("delivered %d + dropped %d != %d", got, fails, n)
	}
	if got < n*8/10 {
		t.Fatalf("only %d/%d delivered on a marginal link", got, n)
	}
	if tx.Stats().TxMPDUs <= int64(n) {
		t.Fatal("no MAC retransmissions on a marginal link?")
	}
}

func TestInOrderDeliveryUnderLoss(t *testing.T) {
	// The block-ack reorder buffer must hide per-subframe loss: the
	// receiver sees MSDUs strictly in transmit order.
	md := newTestMedium(20)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	var seqs []uint32
	rx.OnReceive = func(m *MPDU, now sim.Time) { seqs = append(seqs, m.Dgram.TCP.Seq) }
	const n = 300
	for i := 0; i < n; i++ {
		d := dgram(1400)
		d.TCP.Seq = uint32(i)
		tx.Enqueue(d, rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("out-of-order delivery at %d: %d after %d", i, seqs[i], seqs[i-1])
		}
	}
	if len(seqs) < n*8/10 {
		t.Fatalf("too few delivered: %d", len(seqs))
	}
}

func TestReorderAdvanceOnDrop(t *testing.T) {
	// With a terrible link, drops at Best Effort's retry limit must not
	// stall the reorder buffer: later packets still reach the receiver.
	md := newTestMedium(-1) // below even MCS0's requirement

	tx := md.AddStation(StationConfig{Name: "tx", NSS: 1, Width: spectrum.W20})
	rx := md.AddStation(stationCfg("rx"))
	got := 0
	rx.OnReceive = func(*MPDU, sim.Time) { got++ }
	for i := 0; i < 100; i++ {
		tx.Enqueue(dgram(1000), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	st := tx.Stats()
	if st.Dropped == 0 {
		t.Fatal("expected drops on a 5 dB link")
	}
	if got == 0 {
		t.Fatal("reorder buffer stalled after drops")
	}
	if got+int(st.Dropped) != 100 {
		t.Fatalf("delivered %d + dropped %d != 100", got, st.Dropped)
	}
}

func TestMediumSharingRoughlyFair(t *testing.T) {
	// Two saturated transmitters to one receiver: CSMA should split
	// airtime roughly evenly.
	md := newTestMedium(40)
	a := md.AddStation(stationCfg("a"))
	b := md.AddStation(stationCfg("b"))
	rx := md.AddStation(stationCfg("rx"))
	rx.OnReceive = func(*MPDU, sim.Time) {}
	// Keep both queues shallow so many contention rounds happen.
	refill := md.Engine().Ticker(500*sim.Microsecond, func(*sim.Engine) {
		for a.QueueDepth(phy.ACBE, rx.ID) < 8 {
			a.Enqueue(dgram(1400), rx.ID, phy.ACBE)
		}
		for b.QueueDepth(phy.ACBE, rx.ID) < 8 {
			b.Enqueue(dgram(1400), rx.ID, phy.ACBE)
		}
	})
	md.Engine().RunUntil(2 * sim.Second)
	refill()
	at, bt := a.Stats().AirtimeUs, b.Stats().AirtimeUs
	ratio := at / bt
	if ratio < 0.6 || ratio > 1.6 {
		t.Fatalf("airtime ratio %.2f, want ~1", ratio)
	}
	if md.Stats().Collisions == 0 {
		t.Fatal("two saturated stations never collided?")
	}
}

// One clean frame exchange is three engine events: the contention round
// the enqueue kicks, the frame's completion, and the round that completion
// kicks, which finds nothing queued.
func TestFrameExchangeEvents(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	md.Engine().Run()
	if got := md.Engine().Fired(); got != 3 {
		t.Fatalf("one frame exchange fired %d events, want 3", got)
	}
	if tx.Stats().Delivered != 1 {
		t.Fatalf("stats: %+v", tx.Stats())
	}
}

func TestCleanChannelDeliversAll(t *testing.T) {
	// On a clean channel nothing corrupts a frame: every MPDU arrives.
	md := newTestMedium(45)
	a := md.AddStation(stationCfg("a"))
	rx := md.AddStation(stationCfg("rx"))
	n := 0
	rx.OnReceive = func(*MPDU, sim.Time) { n++ }
	for i := 0; i < 200; i++ {
		a.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	if n != 200 {
		t.Fatalf("delivered %d/200 on a clean channel", n)
	}
}

func TestDeferUntilAudibleTransmissionEnds(t *testing.T) {
	// B hears A; while A transmits a long frame, B must not start.
	md := newTestMedium(45)
	a := md.AddStation(stationCfg("a"))
	b := md.AddStation(stationCfg("b"))
	rx := md.AddStation(stationCfg("rx"))
	var order []StationID
	rx.OnReceive = func(m *MPDU, now sim.Time) { order = append(order, m.Src) }
	// A queues a big aggregate first; B queues one packet mid-flight.
	for i := 0; i < 64; i++ {
		a.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().After(200*sim.Microsecond, func(*sim.Engine) {
		b.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	})
	md.Engine().Run()
	if len(order) < 65 {
		t.Fatalf("missing deliveries: %d", len(order))
	}
	// All of A's MPDUs from the first frame must precede B's packet.
	bPos := -1
	for i, src := range order {
		if src == b.ID {
			bPos = i
			break
		}
	}
	if bPos >= 0 && bPos < 60 {
		t.Fatalf("B transmitted at position %d, inside A's frame", bPos)
	}
	if md.Stats().Collisions != 0 {
		t.Fatalf("audible stations collided mid-frame: %d", md.Stats().Collisions)
	}
}

func TestEDCAPriority(t *testing.T) {
	// Voice traffic must see lower MAC latency than background traffic
	// under contention (Fig 4's ordering).
	md := newTestMedium(40)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	rx.OnReceive = func(*MPDU, sim.Time) {}
	var voSum, bkSum sim.Time
	var voN, bkN int
	tx.OnDelivered = func(m *MPDU, ok bool, now sim.Time) {
		if !ok {
			return
		}
		lat := now - m.EnqueuedAt
		if m.AC == phy.ACVO {
			voSum += lat
			voN++
		} else if m.AC == phy.ACBK {
			bkSum += lat
			bkN++
		}
	}
	for i := 0; i < 150; i++ {
		tx.Enqueue(dgram(400), rx.ID, phy.ACVO)
		tx.Enqueue(dgram(1400), rx.ID, phy.ACBK)
	}
	md.Engine().Run()
	if voN == 0 || bkN == 0 {
		t.Fatalf("vo=%d bk=%d", voN, bkN)
	}
	voMean := float64(voSum) / float64(voN)
	bkMean := float64(bkSum) / float64(bkN)
	if voMean >= bkMean {
		t.Fatalf("VO latency %.0fµs >= BK %.0fµs", voMean, bkMean)
	}
}

func TestEnqueueFrontJumpsQueue(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	var first uint32
	seen := false
	rx.OnReceive = func(m *MPDU, now sim.Time) {
		if !seen {
			first = m.Dgram.TCP.Seq
			seen = true
		}
	}
	// Fill the queue, then front-insert a marked packet before any
	// contention resolution runs.
	for i := 0; i < 10; i++ {
		d := dgram(1400)
		d.TCP.Seq = uint32(i + 100)
		tx.Enqueue(d, rx.ID, phy.ACBE)
	}
	urgent := dgram(1400)
	urgent.TCP.Seq = 7
	tx.EnqueueFront(urgent, rx.ID, phy.ACBE)
	md.Engine().Run()
	if !seen || first != 7 {
		t.Fatalf("front-inserted packet delivered %v first=%d", seen, first)
	}
}

func TestQueueLimits(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(StationConfig{Name: "tx", NSS: 1, Width: spectrum.W20, QueueLimit: 5})
	rx := md.AddStation(stationCfg("rx"))
	drops := 0
	tx.OnDrop = func(*MPDU, sim.Time) { drops++ }
	accepted := 0
	for i := 0; i < 10; i++ {
		if tx.Enqueue(dgram(100), rx.ID, phy.ACBE) {
			accepted++
		}
	}
	if accepted != 5 || drops != 5 {
		t.Fatalf("accepted=%d drops=%d, want 5/5", accepted, drops)
	}
}

func TestSharedPoolLimit(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(StationConfig{Name: "tx", NSS: 1, Width: spectrum.W20, SharedPoolLimit: 8, QueueLimit: 100})
	rx1 := md.AddStation(stationCfg("rx1"))
	rx2 := md.AddStation(stationCfg("rx2"))
	accepted := 0
	for i := 0; i < 6; i++ {
		if tx.Enqueue(dgram(100), rx1.ID, phy.ACBE) {
			accepted++
		}
		if tx.Enqueue(dgram(100), rx2.ID, phy.ACBE) {
			accepted++
		}
	}
	if accepted != 8 {
		t.Fatalf("accepted %d, pool limit 8", accepted)
	}
	if tx.Stats().PoolDrops != 4 {
		t.Fatalf("pool drops = %d", tx.Stats().PoolDrops)
	}
}

func TestRoundRobinAcrossDestinations(t *testing.T) {
	// One AP serving three clients: deliveries should interleave rather
	// than drain one client completely first.
	md := newTestMedium(45)
	ap := md.AddStation(stationCfg("ap"))
	var order []StationID
	for i := 0; i < 3; i++ {
		c := md.AddStation(stationCfg("c"))
		c.OnReceive = func(m *MPDU, now sim.Time) { order = append(order, m.Dst) }
		for j := 0; j < 100; j++ {
			ap.Enqueue(dgram(1400), c.ID, phy.ACBE)
		}
	}
	md.Engine().Run()
	// The first three frames must hit three distinct destinations.
	distinct := map[StationID]bool{}
	for _, id := range order[:minInt(len(order), 130)] {
		distinct[id] = true
	}
	if len(distinct) != 3 {
		t.Fatalf("round robin broken: %d destinations early on", len(distinct))
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestInterfererStealsAirtime(t *testing.T) {
	mdClean := newTestMedium(45)
	mdBusy := newTestMedium(45)
	run := func(md *Medium, interfere bool) float64 {
		tx := md.AddStation(stationCfg("tx"))
		rx := md.AddStation(stationCfg("rx"))
		var bytes int64
		rx.OnReceive = func(m *MPDU, now sim.Time) { bytes += int64(m.Dgram.PayloadLen) }
		if interfere {
			md.AddInterferer(10*sim.Millisecond, 0.6)
		}
		refill := md.Engine().Ticker(sim.Millisecond, func(*sim.Engine) {
			for tx.QueueDepth(phy.ACBE, rx.ID) < 64 {
				tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
			}
		})
		md.Engine().RunUntil(2 * sim.Second)
		refill()
		return float64(bytes) * 8 / 2e6
	}
	clean := run(mdClean, false)
	busy := run(mdBusy, true)
	if busy > clean*0.7 {
		t.Fatalf("60%% duty interferer barely hurt: %.0f vs %.0f Mbps", busy, clean)
	}
	if busy < clean*0.1 {
		t.Fatalf("interferer killed the link entirely: %.0f vs %.0f", busy, clean)
	}
}

func TestRateControllerAdaptsDown(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	rx.OnReceive = func(*MPDU, sim.Time) {}
	for i := 0; i < 50; i++ {
		tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	before := tx.rateFor(rx.ID).Current().Mbps()

	// The link collapses: SNR drops 30 dB.
	md.SetSNR(tx.ID, rx.ID, 15)
	for i := 0; i < 300; i++ {
		tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
	}
	md.Engine().Run()
	after := tx.rateFor(rx.ID).Current().Mbps()
	if after >= before {
		t.Fatalf("rate did not adapt down: %.0f -> %.0f Mbps", before, after)
	}
}

func TestRateControllerEfficiency(t *testing.T) {
	rc := NewRateController(2, spectrum.W80, phy.SGI, 45, sim.NewEngine(5).Rand())
	if e := rc.Efficiency(); e < 0.5 || e > 1 {
		t.Fatalf("efficiency at 45 dB = %.2f", e)
	}
	low := NewRateController(2, spectrum.W80, phy.SGI, 12, sim.NewEngine(5).Rand())
	if low.Current().Mbps() >= rc.Current().Mbps() {
		t.Fatal("low-SNR link starts at a higher rate")
	}
}

func TestUtilizationTracksLoad(t *testing.T) {
	md := newTestMedium(40)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	rx.OnReceive = func(*MPDU, sim.Time) {}
	refill := md.Engine().Ticker(sim.Millisecond, func(*sim.Engine) {
		for tx.QueueDepth(phy.ACBE, rx.ID) < 32 {
			tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
		}
	})
	md.Engine().RunUntil(sim.Second)
	refill()
	if u := md.Utilization(); u < 0.5 || u > 1.05 {
		t.Fatalf("saturated utilization = %.2f", u)
	}
}

// Stations with equal TxDelays share one host-stack line, and a frame
// joins its station's queue, and contends, only once that delay has
// passed; until then the engine counts it as queued.
func TestTxDelayLines(t *testing.T) {
	md := newTestMedium(45)
	ap := md.AddStation(stationCfg("ap"))
	withDelay := func(name string, d sim.Time) *Station {
		cfg := stationCfg(name)
		cfg.TxDelay = d
		return md.AddStation(cfg)
	}
	a := withDelay("a", 2*sim.Millisecond)
	b := withDelay("b", 2*sim.Millisecond)
	c := withDelay("c", 3*sim.Millisecond)
	if ap.txLine != nil || a.txLine == nil || a.txLine != b.txLine || a.txLine == c.txLine || len(md.txLines) != 2 {
		t.Fatalf("lines: ap %p, a %p, b %p, c %p, medium holds %d; want none for ap, a and b sharing one, c its own",
			ap.txLine, a.txLine, b.txLine, c.txLine, len(md.txLines))
	}
	got := make([]sim.Time, len(md.Stations()))
	ap.OnReceive = func(m *MPDU, now sim.Time) { got[m.Src] = now }
	clients := []*Station{c, b, a}
	for _, st := range clients {
		if !st.Enqueue(dgram(1400), ap.ID, phy.ACBE) {
			t.Fatalf("%s: enqueue rejected", st.Name())
		}
	}
	e := md.Engine()
	if e.Queued() != len(clients) {
		t.Fatalf("Queued() = %d with %d frames in host stacks", e.Queued(), len(clients))
	}
	e.RunUntil(2*sim.Millisecond - 1)
	for _, st := range clients {
		if n := st.QueueDepth(phy.ACBE, ap.ID); n != 0 || got[st.ID] != 0 {
			t.Fatalf("%s: %d queued, received at %v before its TxDelay passed", st.Name(), n, got[st.ID])
		}
	}
	e.Run()
	for _, st := range clients {
		if d := st.Config().TxDelay; got[st.ID] < d || got[st.ID] >= d+sim.Millisecond {
			t.Fatalf("%s: received at %v, want within a millisecond after its TxDelay %v", st.Name(), got[st.ID], d)
		}
	}
}

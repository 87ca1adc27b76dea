// Package testbed reproduces the §5.6 performance lab: one or two 802.11ac
// APs on a shared channel, a configurable population of 3x3 MacBook-class
// clients, a wired TCP sender behind a multigigabit switch, and per-flow
// ixChariot-style bulk transfers. Each AP runs either the baseline TCP
// path (pure bridge) or the FastACK agent.
//
// The testbed wires together the mac, tcpstack, fastack, phy and packet
// substrates on one discrete-event engine and exposes the measurements the
// paper reports: per-client throughput, 802.11 vs TCP latency, cwnd
// traces, A-MPDU aggregate sizes, and airtime shares.
package testbed

import (
	"fmt"

	"repro/internal/fastack"
	"repro/internal/faults"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/pcap"
	"repro/internal/phy"
	"repro/internal/seqspace"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/tcpstack"
)

// Mode selects an AP's datapath.
type Mode int

const (
	// Baseline bridges TCP unchanged (the paper's "TCP Baseline").
	Baseline Mode = iota
	// FastACK enables the fastack agent on the AP.
	FastACK
)

func (m Mode) String() string {
	if m == FastACK {
		return "FastACK"
	}
	return "Baseline"
}

// Traffic selects the flow type for clients.
type Traffic int

const (
	// TCPBulk runs one saturating TCP download per client.
	TCPBulk Traffic = iota
	// UDPBulk runs a constant-bit-rate UDP download per client (the Fig 15
	// aggregation upper bound).
	UDPBulk
	// TCPUplink runs one saturating TCP upload per client (client →
	// wired server): the reverse-direction regime of Sharon & Alpert,
	// where the AP's downlink carries only the server's ACK stream and a
	// FastACK agent must stay entirely dormant.
	TCPUplink
	// TCPBidirectional runs a download and an upload per client
	// concurrently: downlink data competes with uplink data and both ACK
	// streams for airtime.
	TCPBidirectional
)

// The addressing plan. One wired server, 10.0.0.1, terminates every flow;
// client i is 10.0.1.0+i. Its download runs server:5000+i → client:80 and
// its upload client:81 → server:20000+i, so the client's address or the
// server's port alone names the client.
const (
	serverAddr       = 0x0a000001
	clientAddrBase   = 0x0a000100
	downServerPort   = 5000
	downClientPort   = 80
	upServerPort     = 20000
	uplinkClientPort = 81
)

// downloadFlow and uploadFlow are client i's two flows in the direction the
// server sends them — the download's data, the upload's ACK stream — which
// is the direction an AP's agent files both under. Dst is the client's
// endpoint.
func downloadFlow(i int) packet.Flow { return planFlow(i, downServerPort, downClientPort) }
func uploadFlow(i int) packet.Flow   { return planFlow(i, upServerPort, uplinkClientPort) }

func planFlow(i, serverPort int, clientPort uint16) packet.Flow {
	return packet.Flow{
		Proto: packet.ProtoTCP,
		Src:   packet.Endpoint{Addr: packet.IPv4AddrFromUint32(serverAddr), Port: uint16(serverPort + i)},
		Dst:   packet.Endpoint{Addr: packet.IPv4AddrFromUint32(clientAddrBase + uint32(i)), Port: clientPort},
	}
}

// clientIndexOf is the plan's inverse: the client index a 10.0.1.x address
// stands for. Any other address gives an index no client has — one below
// 10.0.1.0 wraps to a huge one — so callers bounds-check it.
func clientIndexOf(a packet.IPv4Addr) int {
	v := uint32(a[0])<<24 | uint32(a[1])<<16 | uint32(a[2])<<8 | uint32(a[3])
	return int(v - clientAddrBase)
}

// The testbed's fixed hardware (§5.6): an 802.11ac wave-2 3x3 AP at
// 80 MHz serving 3x3 clients, one switch hop from the wired sender.
const (
	width = spectrum.W80
	nss   = 3
	// wiredDelay is the one-way sender<->AP latency through the switch.
	wiredDelay = 500 * sim.Microsecond
	// clientTxDelay models client host-stack latency before transmitting
	// (§5.1: "many client devices take over 2 ms to even begin
	// transmitting TCP ACKs").
	clientTxDelay = 4 * sim.Millisecond
	// apSharedPool is the AP driver's shared tx-descriptor pool in MPDUs.
	apSharedPool = 2048
	// apPerClientQueue is the per-STA (per-TID) driver queue depth.
	apPerClientQueue = 64
)

// Options configures a testbed run.
type Options struct {
	Seed    int64
	APModes []Mode // one AP per entry; all share one collision domain
	// ClientsPerAP assigns this many clients to each AP.
	ClientsPerAP int
	Traffic      Traffic
	// UDPRateMbps is the per-client offered load for UDPBulk.
	UDPRateMbps float64

	// SNRMin/SNRMax spread clients uniformly across this link-quality
	// range (near vs far clients, Fig 17's low performers).
	SNRMin, SNRMax float64
	// BadHintRate is the probability that a received A-MPDU contains one
	// MPDU that was 802.11-ACKed but never reaches the client's transport
	// layer (§5.7 reports ≈1.5% bad hints on Broadcom Macbooks). The
	// paper observed this under FastACK's deep pipelining, so the testbed
	// applies it only when the serving AP runs FastACK; the agent
	// recovers with local retransmissions.
	BadHintRate float64

	// NoFading holds every client's link SNR at its base draw; the zero
	// value runs the fade process of fading.go.
	NoFading bool

	// DataFaults, when non-nil, injects seeded data-path chaos (see
	// internal/faults.DataProfile): wired-side segment loss / reorder /
	// duplication / corruption on downlink data, block-ACK feedback loss
	// bursts at FastACK APs, client uplink disconnect windows, and
	// scheduled mid-flow roams. Wired and disconnect faults are
	// mode-independent so Baseline and FastACK runs at one seed face the
	// same adversity.
	DataFaults *faults.DataProfile

	TCP     tcpstack.Config
	FastACK fastack.Config

	// Warmup excludes the initial transient from collected statistics.
	Warmup sim.Time

	// Capture, when non-nil, receives every datagram crossing the APs'
	// wired ports as a raw-IP pcap stream (openable in Wireshark).
	Capture *pcap.Writer
}

// DefaultOptions mirrors the paper's testbed: ten clients per AP spread
// over 24-44 dB of SNR, fading on.
func DefaultOptions() Options {
	return Options{
		Seed:         1,
		APModes:      []Mode{Baseline},
		ClientsPerAP: 10,
		Traffic:      TCPBulk,
		UDPRateMbps:  120,
		SNRMin:       24,
		SNRMax:       44,
		TCP:          tcpstack.DefaultConfig(),
		FastACK:      fastack.DefaultConfig(),
		Warmup:       2 * sim.Second,
	}
}

// AP is one access point: a MAC station plus the wired port and an
// optional FastACK agent.
type AP struct {
	tb      *Testbed
	Index   int
	Mode    Mode
	Station *mac.Station
	Agent   *fastack.Agent // nil for Baseline

	// unacked is the TCP-latency probe (Fig 10 / §4.6.2): per client, by
	// index, the forward time of every segment of its download the client
	// has not yet acknowledged, filed under the segment's end-seq.
	unacked []seqspace.Window[sim.Time]
}

// client returns the client with address addr if it is associated with ap,
// nil otherwise: another AP's client, one that has roamed away, no client.
func (ap *AP) client(addr packet.IPv4Addr) *Client {
	i := clientIndexOf(addr)
	if i < 0 || i >= len(ap.tb.Clients) || ap.tb.Clients[i].AP != ap {
		return nil
	}
	return ap.tb.Clients[i]
}

// Client is one wireless station running a receiver endpoint.
type Client struct {
	tb       *Testbed
	Index    int
	AP       *AP
	Station  *mac.Station
	Addr     packet.IPv4Addr
	Receiver *tcpstack.Receiver // TCPBulk / TCPBidirectional download
	Uplink   *tcpstack.Sender   // TCPUplink / TCPBidirectional upload
	SNR      float64

	UDPBytes    int64 // UDPBulk sink
	warmupBytes int64 // bytes received before the warmup cutoff
	wbLatched   bool

	// Bad-hint batching: MPDUs delivered at the same instant belong to
	// one A-MPDU; at most one per affected frame is lost to the driver.
	badBatchAt   sim.Time
	badBatchArm  bool
	badBatchUsed bool
}

// Sender is the wired-side endpoint bundle for one client: the downlink
// TCP/UDP source and, for uplink traffic, the server-side receiver of the
// client's upload.
type Sender struct {
	Client *Client
	TCP    *tcpstack.Sender
	UDP    *tcpstack.UDPSource
	// UpRX terminates the client's upload (TCPUplink / TCPBidirectional).
	UpRX *tcpstack.Receiver
	// CwndTrace samples (time, cwnd segments) for Fig 14.
	CwndTrace []CwndSample

	warmupUpBytes int64
	upLatched     bool
}

func (s *Sender) latchWarmup() {
	if s.UpRX != nil {
		s.warmupUpBytes = s.UpRX.Stats().BytesReceived
		s.upLatched = true
	}
}

// CwndSample is one tcp_probe-style observation.
type CwndSample struct {
	At       sim.Time
	Segments int
}

// Testbed is a fully wired simulation instance.
type Testbed struct {
	Opt     Options
	Engine  *sim.Engine
	Medium  *mac.Medium
	APs     []*AP
	Clients []*Client
	Senders []*Sender

	// Measurement collectors (post-warmup).
	Lat80211     *stats.Sample   // ms, AP downlink MPDU wire->802.11-ACK
	LatTCP       *stats.Sample   // ms, AP data-forward -> corresponding TCP ACK seen
	AggAP        []*stats.Sample // per-AP A-MPDU sizes (downlink data frames), by AP index
	AggPerClient []*stats.Sample // per-client aggregate sizes, by client index

	// Faults counts injected data-path faults (zero without DataFaults).
	Faults FaultCounters

	dataInj    *faults.DataInjector
	warmupDone bool

	// wireLine carries every datagram that crosses the switch in exactly
	// wiredDelay; only a reordered one takes a delay of its own.
	wireLine *sim.Line[wired]

	// apAt and clientAt resolve a mac.StationID to the AP or client that
	// owns the station (nil for the other kind).
	apAt     []*AP
	clientAt []*Client
}

// FaultCounters tallies the data-path faults actually injected.
type FaultCounters struct {
	WireDrops    int64
	WireReorders int64
	WireDups     int64
	WireCorrupts int64
	BADrops      int64 // block-ACK feedback events lost before the agent
	UplinkDrops  int64 // client uplink frames lost to disconnect windows
}

// New constructs and wires a testbed.
func New(opt Options) *Testbed {
	if len(opt.APModes) == 0 {
		opt.APModes = []Mode{Baseline}
	}
	if opt.ClientsPerAP <= 0 {
		opt.ClientsPerAP = 1
	}
	if opt.FastACK.FlowQueueBudget == 0 {
		// Keep the sum across flows inside 90% of the shared pool.
		opt.FastACK.FlowQueueBudget = apSharedPool * tcpstack.MSS * 9 / 10 / opt.ClientsPerAP
	}
	// Invariant: the agent must never admit more per flow than the per-STA
	// driver queue can hold, or its own vouched-for packets tail-drop and
	// strand the sender on RTOs. Hold each flow just below the cap.
	opt.FastACK.FlowQueueBudget = min(opt.FastACK.FlowQueueBudget, (apPerClientQueue-8)*tcpstack.MSS)
	tb := &Testbed{
		Opt:      opt,
		Engine:   sim.NewEngine(opt.Seed),
		Lat80211: stats.NewSample(4096),
		LatTCP:   stats.NewSample(4096),
	}
	tb.dataInj = faults.NewData(opt.DataFaults)
	tb.wireLine = sim.NewLine(tb.Engine, wiredDelay, func(w wired) { w.to.fromWire(w.d) })
	tb.Medium = mac.NewMedium(tb.Engine, 35)
	tb.Medium.OnFrame = tb.onFrame

	for i, mode := range opt.APModes {
		ap := &AP{tb: tb, Index: i, Mode: mode}
		ap.Station = tb.Medium.AddStation(mac.StationConfig{
			Name: fmt.Sprintf("ap%d", i), NSS: nss, Width: width,
			GI: phy.SGI, IsAP: true,
			// Driver limits of a wave-2 AP: a shallow per-STA (per-TID)
			// queue — one block-ack window plus change — and a shared
			// tx-descriptor pool. ACK-clocked baseline senders overrun
			// the per-STA queue in bursts (tail drops -> cwnd sawtooth,
			// drained queues, small aggregates); the FastACK agent's
			// per-flow queue budget holds it just below the cap.
			QueueLimit:      apPerClientQueue,
			SharedPoolLimit: apSharedPool,
		})
		if mode == FastACK {
			ap.Agent = fastack.New(opt.FastACK, tb.Engine.Now)
		}
		st := ap.Station
		st.OnReceive = func(m *mac.MPDU, now sim.Time) { ap.fromWireless(m) }
		st.OnDelivered = func(m *mac.MPDU, ok bool, now sim.Time) { ap.onWirelessAck(m, ok, now) }
		tb.APs = append(tb.APs, ap)
		tb.AggAP = append(tb.AggAP, stats.NewSample(4096))
	}

	clientIdx := 0
	for _, ap := range tb.APs {
		for j := 0; j < opt.ClientsPerAP; j++ {
			tb.addClient(ap, clientIdx)
			clientIdx++
		}
	}
	n := len(tb.Medium.Stations())
	tb.apAt, tb.clientAt = make([]*AP, n), make([]*Client, n)
	for _, ap := range tb.APs {
		tb.apAt[ap.Station.ID] = ap
		ap.unacked = make([]seqspace.Window[sim.Time], len(tb.Clients))
	}
	for _, c := range tb.Clients {
		tb.clientAt[c.Station.ID] = c
	}
	return tb
}

func (tb *Testbed) addClient(ap *AP, idx int) {
	opt := tb.Opt
	snr := opt.SNRMin
	if opt.SNRMax > opt.SNRMin {
		snr += tb.Engine.Rand().Float64() * (opt.SNRMax - opt.SNRMin)
	}
	down, up := downloadFlow(idx), uploadFlow(idx)
	c := &Client{tb: tb, Index: idx, AP: ap, SNR: snr, Addr: down.Dst.Addr}
	c.Station = tb.Medium.AddStation(mac.StationConfig{
		Name: fmt.Sprintf("c%d", idx), NSS: nss, Width: width,
		GI: phy.SGI, TxDelay: clientTxDelay,
	})
	tb.Medium.SetSNR(ap.Station.ID, c.Station.ID, snr)
	c.Station.OnReceive = func(m *mac.MPDU, now sim.Time) { c.fromAir(m) }
	tb.Clients = append(tb.Clients, c)
	tb.AggPerClient = append(tb.AggPerClient, stats.NewSample(1024))

	serverEP, clientEP := down.Src, down.Dst
	snd := &Sender{Client: c}
	switch opt.Traffic {
	case UDPBulk:
		// Started in Run so the ticker aligns with t=0.
		snd.UDP = nil
	case TCPUplink:
		// Upload only: no downlink flow.
	default:
		snd.TCP = tcpstack.NewSender(tb.Engine, opt.TCP, serverEP, clientEP, func(d *packet.Datagram) {
			// Route through the client's *current* AP: after a roam, the
			// switch forwards to the roam-to port (§5.5.4).
			tb.wireToAP(c.AP, d)
		})
		snd.TCP.OnCwnd = func(now sim.Time, cwndBytes int) {
			snd.CwndTrace = append(snd.CwndTrace, CwndSample{At: now, Segments: cwndBytes / tcpstack.MSS})
		}
		c.Receiver = tcpstack.NewReceiver(tb.Engine, opt.TCP, clientEP, serverEP, func(d *packet.Datagram) {
			c.Station.Enqueue(d, c.AP.Station.ID, phy.ACBE)
		})
	}
	if opt.Traffic == TCPUplink || opt.Traffic == TCPBidirectional {
		// Reverse-direction transfer: the client is the TCP sender, a
		// wired server endpoint terminates it. Uplink data rides the
		// client's station queue like its ACKs; the server's pure-ACK
		// stream crosses the AP as ordinary (payload-free) downlink.
		upCli, upSrv := up.Dst, up.Src
		c.Uplink = tcpstack.NewSender(tb.Engine, opt.TCP, upCli, upSrv, func(d *packet.Datagram) {
			c.Station.Enqueue(d, c.AP.Station.ID, phy.ACBE)
		})
		snd.UpRX = tcpstack.NewReceiver(tb.Engine, opt.TCP, upSrv, upCli, func(d *packet.Datagram) {
			tb.wireToAP(c.AP, d)
		})
	}
	tb.Senders = append(tb.Senders, snd)
}

// wirePort is one end of the switch: an AP's Ethernet port, or the wired
// hosts (the Testbed itself).
type wirePort interface {
	fromWire(d *packet.Datagram)
}

// wired is a datagram on its way across the switch.
type wired struct {
	d  *packet.Datagram
	to wirePort
}

// wire carries a datagram across the switch, in either direction: after the
// one-way latency it arrives at to. TCP payload segments face the
// configured wired-side data faults on the way, drawn at fault coordinate
// coord; handshake and pure-ACK control traffic is spared so a chaos run
// still converges through connection setup.
func (tb *Testbed) wire(d *packet.Datagram, coord int, to wirePort) {
	tb.capture(d)
	delay := tb.wireLine.Delay()
	if dj := tb.dataInj; dj != nil && d.TCP != nil && d.PayloadLen > 0 {
		seq := d.TCP.Seq
		att := dj.SegmentArrival(coord, seq)
		if dj.DropSegment(coord, seq, att) {
			tb.Faults.WireDrops++
			return
		}
		if dj.CorruptSegment(coord, seq, att) {
			tb.Faults.WireCorrupts++
			d = corruptSegment(d, dj.CorruptU32(coord, seq, 0, att))
		}
		if extra, ok := dj.ReorderSegment(coord, seq, att); ok {
			tb.Faults.WireReorders++
			delay += extra
		}
		if dj.DuplicateSegment(coord, seq, att) {
			tb.Faults.WireDups++
			dup := d.Clone()
			tb.Engine.After(delay+50*sim.Microsecond, func(*sim.Engine) { to.fromWire(dup) })
		}
	}
	if delay != tb.wireLine.Delay() {
		tb.Engine.After(delay, func(*sim.Engine) { to.fromWire(d) })
		return
	}
	tb.wireLine.Push(wired{d, to})
}

// wireToAP delivers a datagram from the wired side to the AP's Ethernet
// port. Its data segments draw faults at the destination client's index.
func (tb *Testbed) wireToAP(ap *AP, d *packet.Datagram) {
	tb.wire(d, clientIndexOf(d.IP.Dst), ap)
}

// corruptSegment returns a clone of d with its TCP sequence number mangled
// the way a corrupted-but-checksum-colliding header presents: a jump far
// beyond the receive window, a fallback below it, or bit garbage. The
// original datagram is untouched (the sender still owns it).
func corruptSegment(d *packet.Datagram, garbage uint32) *packet.Datagram {
	c := d.Clone()
	switch garbage % 3 {
	case 0:
		c.TCP.Seq += 32<<20 + garbage%(1<<20) // implausible forward jump
	case 1:
		c.TCP.Seq -= 1 << 16 // stale: far below anything outstanding
	default:
		c.TCP.Seq ^= garbage // wild bits
	}
	return c
}

// capture appends a datagram to the optional pcap stream.
func (tb *Testbed) capture(d *packet.Datagram) {
	if tb.Opt.Capture == nil {
		return
	}
	// Capture errors are surfaced by the writer's own state; a broken
	// sink must not perturb the experiment.
	_ = tb.Opt.Capture.WritePacket(tb.Engine.Now(), d.Marshal())
}

// wireToSender delivers a datagram from the AP to the wired side. Uplink
// *data* segments face the same wired fault classes downlink data does, at
// a direction-salted coordinate so the two directions draw independent
// fault streams.
func (tb *Testbed) wireToSender(d *packet.Datagram) {
	tb.wire(d, faults.UplinkCoord(clientIndexOf(d.IP.Src)), tb)
}

// fromWire handles a datagram arriving at the wired hosts. It routes on
// destination port: of the sending client's two flows, the upload's
// receiver or the download's sender.
func (tb *Testbed) fromWire(d *packet.Datagram) {
	i := clientIndexOf(d.IP.Src)
	if d.TCP == nil || i < 0 || i >= len(tb.Senders) {
		return
	}
	switch snd, port := tb.Senders[i], d.TCP.DstPort; {
	case snd.UpRX != nil && port == uploadFlow(i).Src.Port:
		snd.UpRX.Deliver(d)
	case snd.TCP != nil && port == downloadFlow(i).Src.Port:
		snd.TCP.Deliver(d)
	}
}

// Run executes the scenario for the given duration.
func (tb *Testbed) Run(duration sim.Time) {
	opt := tb.Opt
	tb.startFading()
	// Start flows with a small stagger to avoid synchronized handshakes.
	for i, snd := range tb.Senders {
		switch {
		case snd.TCP != nil:
			s := snd.TCP
			tb.Engine.Schedule(sim.Time(i)*sim.Millisecond, func(e *sim.Engine) { s.Start() })
		case opt.Traffic == UDPBulk:
			down := downloadFlow(snd.Client.Index)
			ap := snd.Client.AP
			snd.UDP = tcpstack.NewUDPSource(tb.Engine, down.Src, down.Dst, tcpstack.MSS, opt.UDPRateMbps,
				func(d *packet.Datagram) { tb.wireToAP(ap, d) })
		}
		if up := snd.Client.Uplink; up != nil {
			u := up
			tb.Engine.Schedule(sim.Time(i)*sim.Millisecond+500*sim.Microsecond,
				func(e *sim.Engine) { u.Start() })
		}
	}
	// Scheduled mid-flow roams from the data-fault profile.
	for _, r := range tb.dataInj.Roams() {
		r := r
		tb.Engine.Schedule(r.At, func(e *sim.Engine) {
			if r.Client < len(tb.Clients) && r.ToAP < len(tb.APs) {
				_ = tb.Roam(r.Client, r.ToAP)
			}
		})
	}
	// Latch warmup counters.
	tb.Engine.Schedule(opt.Warmup, func(e *sim.Engine) {
		tb.warmupDone = true
		for _, c := range tb.Clients {
			c.latchWarmup()
		}
		for _, snd := range tb.Senders {
			snd.latchWarmup()
		}
	})
	tb.Engine.RunUntil(duration)
}

func (c *Client) latchWarmup() {
	if c.Receiver != nil {
		c.warmupBytes = c.Receiver.Stats().BytesReceived
	} else {
		c.warmupBytes = c.UDPBytes
	}
	c.wbLatched = true
}

// GoodputMbps returns the client's post-warmup application goodput.
func (c *Client) GoodputMbps(duration sim.Time) float64 {
	var total int64
	if c.Receiver != nil {
		total = c.Receiver.Stats().BytesReceived
	} else {
		total = c.UDPBytes
	}
	span := duration - c.tb.Opt.Warmup
	if !c.wbLatched || span <= 0 {
		span = duration
	}
	bytes := total - c.warmupBytes
	return float64(bytes) * 8 / span.Seconds() / 1e6
}

// UplinkGoodputMbps returns the client's post-warmup upload goodput as
// measured at the wired server (zero when the traffic mix has no uplink).
func (c *Client) UplinkGoodputMbps(duration sim.Time) float64 {
	snd := c.tb.Senders[c.Index]
	if snd.UpRX == nil {
		return 0
	}
	total := snd.UpRX.Stats().BytesReceived
	span := duration - c.tb.Opt.Warmup
	if !snd.upLatched || span <= 0 {
		span = duration
	}
	return float64(total-snd.warmupUpBytes) * 8 / span.Seconds() / 1e6
}

// AgentStatsPerAP snapshots each AP's FastACK agent counters (a zero
// Stats for Baseline APs), in AP order — the chaos suite's determinism
// fingerprint.
func (tb *Testbed) AgentStatsPerAP() []fastack.Stats {
	out := make([]fastack.Stats, len(tb.APs))
	for i, ap := range tb.APs {
		if ap.Agent != nil {
			out[i] = ap.Agent.Stats()
		}
	}
	return out
}

// InvariantViolations sums runtime safety-invariant trips across every
// FastACK agent (requires Options.FastACK.CheckInvariants).
func (tb *Testbed) InvariantViolations() int64 {
	var n int64
	for _, ap := range tb.APs {
		if ap.Agent != nil {
			n += ap.Agent.Stats().InvariantViolations
		}
	}
	return n
}

// AgentViolations collects the retained invariant-violation messages from
// every FastACK agent.
func (tb *Testbed) AgentViolations() []string {
	var out []string
	for _, ap := range tb.APs {
		if ap.Agent != nil {
			out = append(out, ap.Agent.Violations()...)
		}
	}
	return out
}

// UndrainedBypassedFlows counts flows across all agents that were
// bypassed by the guard and still carry fast-ACK debt. After a drain
// window with the clients reachable, a healthy fleet reads zero.
func (tb *Testbed) UndrainedBypassedFlows() int {
	n := 0
	for _, ap := range tb.APs {
		if ap.Agent != nil {
			n += ap.Agent.UndrainedBypassedFlows()
		}
	}
	return n
}

// onFrame feeds the aggregation collectors with the AP's downlink frames.
func (tb *Testbed) onFrame(fr mac.FrameReport) {
	if !tb.warmupDone || fr.Collision {
		return
	}
	ap := tb.apAt[fr.Src]
	if ap == nil {
		return
	}
	tb.AggAP[ap.Index].Add(float64(fr.AggSize))
	if c := tb.clientAt[fr.Dst]; c != nil {
		tb.AggPerClient[c.Index].Add(float64(fr.AggSize))
	}
}

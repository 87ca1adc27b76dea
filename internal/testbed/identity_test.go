package testbed

import (
	"math/rand"
	"testing"
	"unsafe"

	"repro/internal/packet"
	"repro/internal/sim"
)

// A client is its index (DESIGN §3.9): AP.client answers from tb.Clients and
// the client's own association what the per-AP address-keyed map answered.
// The reference is that map, maintained the way Roam maintained it — an
// insert per client at New, a delete at the roam-from AP and an insert at
// the roam-to AP per roam — and probed at every client's address, at
// addresses above the last client, and at addresses below 10.0.1.0, where
// the subtraction in clientIndexOf wraps.
func TestClientLookupMatchesAssociation(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opt := DefaultOptions()
		opt.Seed = seed
		opt.APModes = make([]Mode, 2+rng.Intn(2))
		for i := range opt.APModes {
			opt.APModes[i] = Mode(rng.Intn(2))
		}
		opt.ClientsPerAP = 1 + rng.Intn(4)
		tb := New(opt)

		ref := make([]map[packet.IPv4Addr]*Client, len(tb.APs))
		for i := range ref {
			ref[i] = map[packet.IPv4Addr]*Client{}
		}
		for _, c := range tb.Clients {
			ref[c.AP.Index][c.Addr] = c
		}
		probes := []packet.IPv4Addr{
			{10, 0, 0, 1}, {10, 0, 0, 255}, {0, 0, 0, 0}, {9, 255, 255, 255}, {255, 255, 255, 255}, {10, 0, 2, 0},
			packet.IPv4AddrFromUint32(clientAddrBase + uint32(len(tb.Clients))),
		}
		for _, c := range tb.Clients {
			probes = append(probes, c.Addr)
		}
		for step := 0; step < 30; step++ {
			c, to := tb.Clients[rng.Intn(len(tb.Clients))], rng.Intn(len(tb.APs))
			from := c.AP.Index
			if err := tb.Roam(c.Index, to); err != nil {
				t.Fatal(err)
			}
			delete(ref[from], c.Addr)
			ref[to][c.Addr] = c
			for _, ap := range tb.APs {
				for _, addr := range probes {
					if got, want := ap.client(addr), ref[ap.Index][addr]; got != want {
						t.Fatalf("seed %d step %d: AP %d client(%v) = %v, the map holds %v", seed, step, ap.Index, addr, got, want)
					}
				}
			}
		}
	}
}

// The addressing plan is one bijection: clientIndexOf inverts the address
// the flows give client i, both flows end on that address, and the
// server's ports name the client too.
func TestAddressingPlanRoundTrips(t *testing.T) {
	for i := 0; i < 300; i++ {
		down, up := downloadFlow(i), uploadFlow(i)
		if clientIndexOf(down.Dst.Addr) != i || up.Dst.Addr != down.Dst.Addr || up.Src.Addr != down.Src.Addr {
			t.Fatalf("client %d: flows %v, %v", i, down, up)
		}
		if int(down.Src.Port) != downServerPort+i || int(up.Src.Port) != upServerPort+i ||
			down.Dst.Port != downClientPort || up.Dst.Port != uplinkClientPort {
			t.Fatalf("client %d: ports of %v, %v", i, down, up)
		}
	}
}

// Seed 42 of the testbed_mixed shape is a run in which the first uplink MPDU
// of a client — its SYN-ACK — exhausts its retries, so the AP hears the BAR
// advance before it has heard anything on that TID. The advance used to be
// lost, every later uplink frame of that client sat behind sequence 0 for
// ever, and its flows never completed a handshake.
func TestFirstFrameRetryExhaustionDoesNotWedgeTheFlow(t *testing.T) {
	opt := DefaultOptions()
	opt.Seed = 42
	opt.FastACK.CheckInvariants = true
	opt.APModes = []Mode{Baseline, FastACK}
	opt.ClientsPerAP = 10
	opt.Traffic = TCPBidirectional
	tb := New(opt)
	tb.Run(2 * sim.Second)
	for _, snd := range tb.Senders {
		if snd.TCP.Stats().SegmentsSent == 0 || snd.Client.Uplink.Stats().SegmentsSent == 0 {
			t.Errorf("client %d never completed a handshake: download sent %d segments, upload %d",
				snd.Client.Index, snd.TCP.Stats().SegmentsSent, snd.Client.Uplink.Stats().SegmentsSent)
		}
	}
	if v := tb.InvariantViolations(); v != 0 {
		t.Errorf("%d invariant violations", v)
	}
}

// The latency probe is one window per client, matched on the download's
// whole 4-tuple. The client's upload, either direction of it, a download
// with another port and a flow to an address no client has find no window,
// as they found no entry in the flow-keyed map.
func TestLatencyProbeFollowsDownloadsOnly(t *testing.T) {
	opt := DefaultOptions()
	opt.ClientsPerAP = 3
	opt.Traffic = TCPBidirectional
	tb := New(opt)
	ap := tb.APs[0]
	for i := range tb.Clients {
		down, up := downloadFlow(i), uploadFlow(i)
		if ap.probe(down) != &ap.unacked[i] {
			t.Fatalf("client %d: download flow %v has no window", i, down)
		}
		wrongPort := down
		wrongPort.Src.Port++
		for _, f := range []packet.Flow{up, down.Reverse(), up.Reverse(), wrongPort} {
			if ap.probe(f) != nil {
				t.Fatalf("client %d: flow %v matched a window", i, f)
			}
		}
	}
	beyond := downloadFlow(len(tb.Clients))
	below := beyond
	below.Dst.Addr = packet.IPv4Addr{10, 0, 0, 200}
	if ap.probe(beyond) != nil || ap.probe(below) != nil {
		t.Fatal("a flow to no client matched a window")
	}
}

// The plan's flow keys are the ones the agent and the probe always filed
// flows under, now with Flow's pad byte zero: client i's download is
// 10.0.0.1:5000+i → 10.0.1.i:80, the Flow of a datagram the server sends on
// it, and the reverse of the client's ACKs' Flow.
func TestDownloadFlowKeys(t *testing.T) {
	for i := 0; i < 40; i++ {
		srv := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: uint16(5000 + i)}
		cli := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, byte(i)}, Port: 80}
		f := downloadFlow(i)
		if f.Proto != packet.ProtoTCP || f.Src != srv || f.Dst != cli {
			t.Fatalf("client %d: download flow %v, want %v->%v/6", i, f, srv, cli)
		}
		if d := packet.NewTCPDatagram(srv, cli, 1448).Flow(); d != f {
			t.Fatalf("client %d: data segment's flow %v, plan's %v", i, d, f)
		}
		if a := packet.NewTCPDatagram(cli, srv, 0).Flow().Reverse(); a != f {
			t.Fatalf("client %d: reversed ACK flow %v, plan's %v", i, a, f)
		}
		if raw := unsafe.Slice((*byte)(unsafe.Pointer(&f)), unsafe.Sizeof(f)); raw[1] != 0 {
			t.Fatalf("client %d: pad byte %d", i, raw[1])
		}
	}
}

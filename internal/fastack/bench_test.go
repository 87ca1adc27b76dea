package fastack

import (
	"fmt"
	"testing"

	"repro/internal/packet"
)

// benchEPs returns the wired-server / wireless-client endpoint pair for the
// i-th benchmark flow (distinct client addresses, one server).
func benchEPs(i int) (srv, cli packet.Endpoint) {
	srv = packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	cli = packet.Endpoint{Addr: packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)}, Port: 80}
	return srv, cli
}

// benchHandshake walks one flow through SYN / SYN-ACK (ISS 1000, wscale 7,
// SACK permitted — the same shape the unit harness uses).
func benchHandshake(a *Agent, srv, cli packet.Endpoint) {
	syn := packet.NewTCPDatagram(srv, cli, 0)
	syn.TCP.Seq = 999
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.WindowScale = 7
	a.HandleDownlink(syn)
	synAck := packet.NewTCPDatagram(cli, srv, 0)
	synAck.TCP.Flags = packet.FlagSYN | packet.FlagACK
	synAck.TCP.Window = 4096 // 512 KiB scaled
	synAck.TCP.WindowScale = 7
	synAck.TCP.SACKPermitted = true
	a.HandleUplink(synAck)
}

// hotPathDriver drives the steady-state many-flow segment lifecycle:
// downlink data → 802.11 delivery feedback (fast ACK) → client cumulative
// ACK (suppressed, cache purge). One step is one segment through the full
// pipeline on one flow, round-robin across all flows.
type hotPathDriver struct {
	a    *Agent
	segs []*packet.Datagram // one reusable data datagram per flow
	acks []*packet.Datagram // one reusable client-ACK datagram per flow
	seqs []uint32
}

func newHotPathDriver(a *Agent, nflows int) *hotPathDriver {
	d := &hotPathDriver{
		a:    a,
		segs: make([]*packet.Datagram, nflows),
		acks: make([]*packet.Datagram, nflows),
		seqs: make([]uint32, nflows),
	}
	for i := 0; i < nflows; i++ {
		srv, cli := benchEPs(i)
		benchHandshake(a, srv, cli)
		d.segs[i] = packet.NewTCPDatagram(srv, cli, segLen)
		d.segs[i].TCP.Flags = packet.FlagACK | packet.FlagPSH
		d.acks[i] = packet.NewTCPDatagram(cli, srv, 0)
		d.acks[i].TCP.Flags = packet.FlagACK
		d.acks[i].TCP.Window = 4096
		d.seqs[i] = 1000
	}
	return d
}

func (d *hotPathDriver) step(i int) {
	fi := i % len(d.segs)
	seg := d.segs[fi]
	seg.TCP.Seq = d.seqs[fi]
	d.a.HandleDownlink(seg)
	disp := d.a.HandleWirelessAck(seg, true)
	for _, fa := range disp.ToSender {
		d.a.Recycle(fa)
	}
	d.seqs[fi] += segLen
	d.acks[fi].TCP.Ack = d.seqs[fi]
	d.a.HandleUplink(d.acks[fi])
}

// warm runs two full rounds over every flow so rings, the flow map, the
// datagram pool, and the scratch slices reach their steady-state sizes.
func (d *hotPathDriver) warm() {
	for i := 0; i < 2*len(d.segs); i++ {
		d.step(i)
	}
}

// BenchmarkAgentHotPath measures steady-state segment processing with 1k
// and 10k concurrent flows: one op is one segment's full lifecycle
// (downlink + wireless feedback + client ACK). Steady state must be
// allocation-free (allocs/op, via ReportAllocs).
func BenchmarkAgentHotPath(b *testing.B) {
	for _, nflows := range []int{1000, 10000} {
		nflows := nflows
		b.Run(fmt.Sprintf("flows=%d", nflows), func(b *testing.B) {
			d := newHotPathDriver(New(DefaultConfig(), nil), nflows)
			d.warm()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.step(i)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "segs/s")
		})
	}
}

// BenchmarkAgentHotPathBatched is the same lifecycle with the wireless
// feedback delivered through HandleWirelessAckBatch in A-MPDU-sized groups
// of 16 segments per flow: one agent entry drains sixteen segments' ACK
// work into one coalesced fast ACK.
func BenchmarkAgentHotPathBatched(b *testing.B) {
	const nflows = 1000
	const burst = 16
	d := newHotPathDriver(New(DefaultConfig(), nil), nflows)
	d.warm()
	evs := make([]SegFate, 0, burst)
	bseg := make([]*packet.Datagram, burst)
	for i := range bseg {
		srv, cli := benchEPs(0)
		bseg[i] = packet.NewTCPDatagram(srv, cli, segLen)
		bseg[i].TCP.Flags = packet.FlagACK | packet.FlagPSH
	}
	step := func(i int) {
		fi := i % nflows
		srv, cli := benchEPs(fi)
		evs = evs[:0]
		for j := 0; j < burst; j++ {
			seg := bseg[j]
			seg.IP.Src, seg.IP.Dst = srv.Addr, cli.Addr
			seg.TCP.SrcPort, seg.TCP.DstPort = srv.Port, cli.Port
			seg.TCP.Seq = d.seqs[fi] + uint32(j*segLen)
			d.a.HandleDownlink(seg)
			evs = append(evs, SegFate{Dgram: seg, OK: true})
		}
		disp := d.a.HandleWirelessAckBatch(evs)
		for _, fa := range disp.ToSender {
			d.a.Recycle(fa)
		}
		d.seqs[fi] += burst * segLen
		d.acks[fi].TCP.Ack = d.seqs[fi]
		d.a.HandleUplink(d.acks[fi])
	}
	for i := 0; i < 2*nflows; i++ {
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)*burst/b.Elapsed().Seconds(), "segs/s")
}

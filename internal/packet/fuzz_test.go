package packet_test

import (
	"bytes"
	"testing"

	"repro/internal/packet"
)

// seedDatagrams returns well-formed wire images covering each parser arm,
// the corpus FuzzUnmarshal starts from (alongside the checked-in testdata
// entries).
func seedDatagrams() [][]byte {
	src := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 443}
	dst := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 7}, Port: 51000}

	tcp := packet.NewTCPDatagram(src, dst, 100)
	tcp.TCP.Seq, tcp.TCP.Ack = 1000, 2000
	tcp.TCP.Flags = packet.FlagACK | packet.FlagPSH
	tcp.TCP.Window = 8192

	syn := packet.NewTCPDatagram(src, dst, 0)
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.MSS = 1460
	syn.TCP.WindowScale = 7
	syn.TCP.SACKPermitted = true

	sack := packet.NewTCPDatagram(dst, src, 0)
	sack.TCP.Flags = packet.FlagACK
	sack.TCP.SACK = []packet.SACKBlock{{Left: 3000, Right: 4448}, {Left: 6000, Right: 7448}}

	udp := packet.NewUDPDatagram(src, dst, 64)

	return [][]byte{tcp.Marshal(), syn.Marshal(), sack.Marshal(), udp.Marshal()}
}

// FuzzUnmarshal drives the IPv4/TCP/UDP decoders with arbitrary bytes. A
// parse either fails cleanly or yields a datagram whose re-encoded form
// parses back to the same flow and payload (header details like IP
// options and unknown TCP options are deliberately not preserved).
func FuzzUnmarshal(f *testing.F) {
	for _, b := range seedDatagrams() {
		f.Add(b)
	}
	f.Add([]byte{0x45})                              // truncated IPv4
	f.Add(bytes.Repeat([]byte{0xff}, 64))            // version 15
	f.Add(append([]byte{0x4f}, make([]byte, 80)...)) // IHL 60
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := packet.Unmarshal(b)
		if err != nil {
			return
		}
		wire := d.Marshal()
		d2, err := packet.Unmarshal(wire)
		if err != nil {
			t.Fatalf("re-parse of re-encoded datagram failed: %v\ninput: %x\nwire:  %x", err, b, wire)
		}
		if d2.Flow() != d.Flow() {
			t.Fatalf("flow changed across round-trip: %v -> %v", d.Flow(), d2.Flow())
		}
		if d2.PayloadLen != d.PayloadLen {
			t.Fatalf("payload length changed across round-trip: %d -> %d", d.PayloadLen, d2.PayloadLen)
		}
		if (d.TCP != nil) != (d2.TCP != nil) || (d.UDP != nil) != (d2.UDP != nil) {
			t.Fatalf("transport type changed across round-trip: %v -> %v", d, d2)
		}
		if d.TCP != nil {
			if d.TCP.Seq != d2.TCP.Seq || d.TCP.Ack != d2.TCP.Ack || d.TCP.Flags != d2.TCP.Flags || d.TCP.Window != d2.TCP.Window {
				t.Fatalf("TCP header changed across round-trip: %v -> %v", d.TCP, d2.TCP)
			}
			if len(d.TCP.SACK) > 4 {
				t.Fatalf("decoder admitted %d SACK blocks (wire format caps at 4)", len(d.TCP.SACK))
			}
		}
	})
}

package packet

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:       MACFromUint64(0x0011223344556677),
		Src:       MACFromUint64(0xaabbccddeeff),
		EtherType: EtherTypeIPv4,
	}
	b := e.Encode(nil)
	got, rest, err := DecodeEthernet(append(b, 0xde, 0xad))
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Fatalf("round trip: %+v != %+v", got, e)
	}
	if len(rest) != 2 {
		t.Fatalf("payload len %d", len(rest))
	}
	if _, _, err := DecodeEthernet(b[:10]); err != ErrTruncated {
		t.Fatalf("truncated: %v", err)
	}
}

func TestMACString(t *testing.T) {
	m := MACFromUint64(0x0000deadbeef0102)
	if m.String() != "de:ad:be:ef:01:02" {
		t.Fatalf("MAC string = %q", m.String())
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := IPv4{
		TOS: 0xb8, ID: 42, TTL: 64, Protocol: ProtoTCP,
		Src: IPv4Addr{10, 0, 0, 1}, Dst: IPv4Addr{10, 0, 1, 9},
	}
	payload := []byte{1, 2, 3, 4, 5}
	b := ip.Encode(nil, len(payload))
	b = append(b, payload...)
	got, rest, err := DecodeIPv4(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Src != ip.Src || got.Dst != ip.Dst || got.Protocol != ProtoTCP || got.TTL != 64 {
		t.Fatalf("decoded %+v", got)
	}
	if !bytes.Equal(rest, payload) {
		t.Fatalf("payload %v", rest)
	}
	// The encoded header checksum must verify (ones-complement sum of
	// the header equals zero when the checksum field is in place).
	if cs := ipChecksum(b[:20]); cs != 0 {
		t.Fatalf("checksum verification failed: %04x", cs)
	}
	if got.DSCP() != 0xb8>>2 {
		t.Fatalf("DSCP = %d", got.DSCP())
	}
}

func TestIPv4SetDSCPPreservesECN(t *testing.T) {
	ip := IPv4{TOS: 0x03} // ECN bits set
	ip.SetDSCP(46)        // EF
	if ip.DSCP() != 46 || ip.TOS&0x3 != 0x3 {
		t.Fatalf("TOS = %02x", ip.TOS)
	}
}

func TestIPv4Malformed(t *testing.T) {
	if _, _, err := DecodeIPv4(make([]byte, 10)); err != ErrTruncated {
		t.Fatal("short header accepted")
	}
	b := make([]byte, 20)
	b[0] = 0x65 // version 6
	if _, _, err := DecodeIPv4(b); err == nil {
		t.Fatal("wrong version accepted")
	}
	b[0] = 0x43 // IHL 3 (< 5)
	if _, _, err := DecodeIPv4(b); err == nil {
		t.Fatal("bad IHL accepted")
	}
}

func TestTCPRoundTripWithOptions(t *testing.T) {
	tc := NewTCP()
	tc.SrcPort, tc.DstPort = 5001, 80
	tc.Seq, tc.Ack = 1_000_000, 2_000_000
	tc.Flags = FlagSYN | FlagACK
	tc.Window = 8192
	tc.MSS = 1448
	tc.WindowScale = 7
	tc.SACKPermitted = true
	tc.SACK = []SACKBlock{{Left: 100, Right: 200}, {Left: 300, Right: 400}}

	src, dst := IPv4Addr{1, 2, 3, 4}, IPv4Addr{5, 6, 7, 8}
	payload := []byte("hello")
	b := tc.Encode(nil, src, dst, payload)

	got, rest, err := DecodeTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 5001 || got.DstPort != 80 || got.Seq != 1_000_000 || got.Ack != 2_000_000 {
		t.Fatalf("fields: %+v", got)
	}
	if got.MSS != 1448 || got.WindowScale != 7 || !got.SACKPermitted {
		t.Fatalf("options: %+v", got)
	}
	if len(got.SACK) != 2 || got.SACK[0] != (SACKBlock{100, 200}) || got.SACK[1] != (SACKBlock{300, 400}) {
		t.Fatalf("SACK: %+v", got.SACK)
	}
	if string(rest) != "hello" {
		t.Fatalf("payload: %q", rest)
	}
	if !VerifyTCPChecksum(src, dst, b) {
		t.Fatal("checksum does not verify")
	}
	// Corrupt a byte: checksum must catch it.
	b[len(b)-1] ^= 0xff
	if VerifyTCPChecksum(src, dst, b) {
		t.Fatal("corruption not detected")
	}
}

func TestTCPNoOptions(t *testing.T) {
	tc := NewTCP()
	tc.Flags = FlagACK
	b := tc.Encode(nil, IPv4Addr{}, IPv4Addr{}, nil)
	if len(b) != 20 {
		t.Fatalf("bare header length = %d", len(b))
	}
	got, _, err := DecodeTCP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.MSS != 0 || got.WindowScale != -1 || got.SACKPermitted || got.SACK != nil {
		t.Fatalf("phantom options: %+v", got)
	}
}

func TestTCPFlagString(t *testing.T) {
	tc := NewTCP()
	tc.Flags = FlagSYN | FlagACK
	if tc.FlagString() != "SA" {
		t.Fatalf("flags = %q", tc.FlagString())
	}
	tc.Flags = 0
	if tc.FlagString() != "." {
		t.Fatalf("empty flags = %q", tc.FlagString())
	}
	if !(&TCP{Flags: FlagACK | FlagPSH}).HasFlag(FlagACK) {
		t.Fatal("HasFlag")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	u := UDP{SrcPort: 53, DstPort: 5353}
	src, dst := IPv4Addr{9, 9, 9, 9}, IPv4Addr{10, 10, 10, 10}
	b := u.Encode(nil, src, dst, []byte{0xca, 0xfe})
	got, payload, err := DecodeUDP(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.SrcPort != 53 || got.DstPort != 5353 || got.Length != 10 {
		t.Fatalf("%+v", got)
	}
	if !bytes.Equal(payload, []byte{0xca, 0xfe}) {
		t.Fatalf("payload %x", payload)
	}
}

func TestFlowKeys(t *testing.T) {
	d := NewTCPDatagram(
		Endpoint{Addr: IPv4Addr{10, 0, 0, 1}, Port: 5000},
		Endpoint{Addr: IPv4Addr{10, 0, 1, 5}, Port: 80}, 100)
	f := d.Flow()
	if f.Proto != ProtoTCP || f.Src.Port != 5000 || f.Dst.Port != 80 {
		t.Fatalf("flow %v", f)
	}
	r := f.Reverse()
	if r.Src != f.Dst || r.Dst != f.Src {
		t.Fatalf("reverse %v", r)
	}
	if r.Reverse() != f {
		t.Fatal("double reverse")
	}
	// Flows must be usable as map keys.
	m := map[Flow]int{f: 1, r: 2}
	if m[f] != 1 || m[r] != 2 {
		t.Fatal("map keying broken")
	}
}

// A Flow is plain memory: 14 bytes, no hole, the pad byte zero in every
// key the package makes, so the runtime hashes and compares it whole.
// Every key keeps the fields it had before the pad.
func TestFlowIsPlainMemory(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n != 14 {
		t.Fatalf("Sizeof(Flow) = %d, want 14", n)
	}
	if off := unsafe.Offsetof(Flow{}.Src); off != 2 {
		t.Fatalf("Src at offset %d, want 2: the pad no longer fills the hole after Proto", off)
	}
	src := Endpoint{Addr: IPv4Addr{10, 0, 0, 1}, Port: 5000}
	dst := Endpoint{Addr: IPv4Addr{10, 0, 1, 5}, Port: 80}
	bare := &Datagram{IP: IPv4{Src: src.Addr, Dst: dst.Addr}}
	for _, c := range []struct {
		name string
		got  Flow
		want Flow
	}{
		{"tcp", NewTCPDatagram(src, dst, 1).Flow(), Flow{Proto: ProtoTCP, Src: src, Dst: dst}},
		{"udp", NewUDPDatagram(src, dst, 1).Flow(), Flow{Proto: ProtoUDP, Src: src, Dst: dst}},
		{"ip", bare.Flow(), Flow{Src: Endpoint{Addr: src.Addr}, Dst: Endpoint{Addr: dst.Addr}}},
		{"reverse", NewTCPDatagram(src, dst, 1).Flow().Reverse(), Flow{Proto: ProtoTCP, Src: dst, Dst: src}},
	} {
		if c.got.pad != 0 {
			t.Fatalf("%s: pad byte %d", c.name, c.got.pad)
		}
		if c.got != c.want || c.got.Proto != c.want.Proto || c.got.Src != c.want.Src || c.got.Dst != c.want.Dst {
			t.Fatalf("%s: key %v, want %v", c.name, c.got, c.want)
		}
	}
}

// A datagram and its transport header are one allocation, made or cloned.
func TestDatagramIsOneObject(t *testing.T) {
	src, dst := Endpoint{Port: 1}, Endpoint{Port: 2}
	tcp, udp := NewTCPDatagram(src, dst, 10), NewUDPDatagram(src, dst, 10)
	for _, c := range []struct {
		name string
		make func() *Datagram
	}{
		{"NewTCPDatagram", func() *Datagram { return NewTCPDatagram(src, dst, 10) }},
		{"NewUDPDatagram", func() *Datagram { return NewUDPDatagram(src, dst, 10) }},
		{"Clone of TCP", tcp.Clone},
		{"Clone of UDP", udp.Clone},
	} {
		if n := testing.AllocsPerRun(100, func() { c.make() }); n != 1 {
			t.Errorf("%s: %v allocations, want 1", c.name, n)
		}
	}
}

func TestDatagramMarshalRoundTrip(t *testing.T) {
	d := NewTCPDatagram(
		Endpoint{Addr: IPv4Addr{10, 0, 0, 1}, Port: 5000},
		Endpoint{Addr: IPv4Addr{10, 0, 1, 5}, Port: 80}, 1448)
	d.TCP.Seq = 777
	d.TCP.Flags = FlagACK | FlagPSH
	d.TCP.Window = 2048

	wire := d.Marshal()
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.TCP == nil || got.TCP.Seq != 777 || got.PayloadLen != 1448 {
		t.Fatalf("round trip: %v", got)
	}
	if got.Flow() != d.Flow() {
		t.Fatalf("flow changed: %v vs %v", got.Flow(), d.Flow())
	}
	if got.WireLen() != d.WireLen() {
		t.Fatalf("wire len: %d vs %d", got.WireLen(), d.WireLen())
	}
	// The embedded TCP checksum must verify after the trip.
	if !VerifyTCPChecksum(got.IP.Src, got.IP.Dst, wire[20:]) {
		t.Fatal("TCP checksum broken through Marshal")
	}
}

func TestDatagramUDPMarshal(t *testing.T) {
	d := NewUDPDatagram(
		Endpoint{Addr: IPv4Addr{1, 1, 1, 1}, Port: 9},
		Endpoint{Addr: IPv4Addr{2, 2, 2, 2}, Port: 10}, 64)
	got, err := Unmarshal(d.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.UDP == nil || got.PayloadLen != 64 {
		t.Fatalf("%v", got)
	}
}

func TestDatagramClone(t *testing.T) {
	d := NewTCPDatagram(Endpoint{Port: 1}, Endpoint{Port: 2}, 10)
	d.TCP.SACK = []SACKBlock{{1, 2}}
	d.Payload = []byte{9}
	c := d.Clone()
	c.TCP.Seq = 99
	c.TCP.SACK[0].Left = 77
	c.Payload[0] = 0
	if d.TCP.Seq == 99 || d.TCP.SACK[0].Left == 77 || d.Payload[0] == 0 {
		t.Fatal("clone aliases original")
	}
}

// Property: TCP encode/decode is a lossless round trip for arbitrary
// field values.
func TestQuickTCPRoundTrip(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, flags uint8, win uint16, wsRaw uint8, payload []byte) bool {
		tc := NewTCP()
		tc.SrcPort, tc.DstPort = sp, dp
		tc.Seq, tc.Ack = seq, ack
		tc.Flags = flags
		tc.Window = win
		tc.WindowScale = int(wsRaw % 15)
		b := tc.Encode(nil, IPv4Addr{1, 2, 3, 4}, IPv4Addr{4, 3, 2, 1}, payload)
		got, rest, err := DecodeTCP(b)
		if err != nil {
			return false
		}
		return got.SrcPort == sp && got.DstPort == dp && got.Seq == seq &&
			got.Ack == ack && got.Flags == flags && got.Window == win &&
			got.WindowScale == int(wsRaw%15) && bytes.Equal(rest, payload) &&
			VerifyTCPChecksum(IPv4Addr{1, 2, 3, 4}, IPv4Addr{4, 3, 2, 1}, b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Unmarshal never panics on arbitrary bytes and errors are
// reported rather than silent garbage.
func TestQuickUnmarshalRobust(t *testing.T) {
	f := func(b []byte) bool {
		d, err := Unmarshal(b)
		return err != nil || d != nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZeroPayloadSynthesis(t *testing.T) {
	d := NewTCPDatagram(Endpoint{Port: 1}, Endpoint{Port: 2}, 100)
	// Payload nil but PayloadLen 100: Marshal synthesizes zeros.
	wire := d.Marshal()
	got, err := Unmarshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.PayloadLen != 100 {
		t.Fatalf("synthesized payload len = %d", got.PayloadLen)
	}
}

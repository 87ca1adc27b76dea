package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRawIP)

	d1 := packet.NewTCPDatagram(
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000},
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 2}, Port: 80}, 100)
	d1.TCP.Seq = 42
	wire1 := d1.Marshal()
	if err := w.WritePacket(1500*sim.Millisecond, wire1); err != nil {
		t.Fatal(err)
	}
	d2 := packet.NewUDPDatagram(
		packet.Endpoint{Addr: packet.IPv4Addr{1, 1, 1, 1}, Port: 53},
		packet.Endpoint{Addr: packet.IPv4Addr{2, 2, 2, 2}, Port: 53}, 10)
	if err := w.WritePacket(2*sim.Second, d2.Marshal()); err != nil {
		t.Fatal(err)
	}
	if w.Packets() != 2 {
		t.Fatalf("packets = %d", w.Packets())
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Link != LinkTypeRawIP {
		t.Fatalf("link = %d", r.Link)
	}
	at, data, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if at != 1500*sim.Millisecond {
		t.Fatalf("timestamp = %v", at)
	}
	got, err := packet.Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.TCP == nil || got.TCP.Seq != 42 || got.PayloadLen != 100 {
		t.Fatalf("decoded %v", got)
	}
	if _, _, err := r.Next(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestHeaderFormat(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRawIP)
	if err := w.WriteHeader(); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteHeader(); err != nil { // idempotent
		t.Fatal(err)
	}
	b := buf.Bytes()
	if len(b) != 24 {
		t.Fatalf("header length %d", len(b))
	}
	if binary.LittleEndian.Uint32(b[0:4]) != 0xa1b2c3d4 {
		t.Fatal("bad magic")
	}
	if binary.LittleEndian.Uint32(b[20:24]) != 101 {
		t.Fatal("bad link type")
	}
}

func TestSnapLen(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, LinkTypeRawIP)
	w.snaplen = 8
	big := make([]byte, 100)
	if err := w.WritePacket(0, big); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, data, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 8 {
		t.Fatalf("caplen = %d, want snapped 8", len(data))
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Fatal("zero header accepted")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty file accepted")
	}
}

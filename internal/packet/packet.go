// Package packet implements wire-format encoding and decoding for the
// protocol layers the FastACK datapath must inspect and synthesize:
// Ethernet, IPv4, TCP (including the options FastACK manipulates: MSS,
// window scale, SACK-permitted and SACK blocks) and UDP.
//
// The design follows the layered-decoding model popularised by gopacket: a
// packet is a []byte decoded into a stack of layers, each layer knows its
// own wire format, and transport flows are identified by hashable
// Flow/Endpoint keys usable directly as map keys.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// LayerType identifies a protocol layer.
type LayerType int

// Layer types understood by this package.
const (
	LayerTypeEthernet LayerType = iota
	LayerTypeIPv4
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
)

func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	}
	return fmt.Sprintf("LayerType(%d)", int(t))
}

// Layer is one decoded protocol layer.
type Layer interface {
	LayerType() LayerType
}

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadFormat = errors.New("packet: malformed header")
)

// MAC is a 6-byte link-layer address, usable as a map key.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// MACFromUint64 builds a MAC from the low 48 bits of v; handy for
// generating distinct synthetic station addresses.
func MACFromUint64(v uint64) MAC {
	var m MAC
	for i := 5; i >= 0; i-- {
		m[i] = byte(v)
		v >>= 8
	}
	return m
}

// IPv4Addr is a 4-byte network address, usable as a map key.
type IPv4Addr [4]byte

func (a IPv4Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a[0], a[1], a[2], a[3])
}

// IPv4AddrFromUint32 builds an address from a 32-bit value.
func IPv4AddrFromUint32(v uint32) IPv4Addr {
	var a IPv4Addr
	binary.BigEndian.PutUint32(a[:], v)
	return a
}

// Endpoint is one side of a transport flow.
type Endpoint struct {
	Addr IPv4Addr
	Port uint16
}

func (e Endpoint) String() string { return fmt.Sprintf("%v:%d", e.Addr, e.Port) }

// Flow identifies a unidirectional transport flow. It is hashable and
// usable as a map key, like gopacket's Flow.
//
// pad fills the byte Go would otherwise leave between Proto and Src, so a
// Flow is 14 bytes with no hole and the runtime compares and hashes it as
// plain memory rather than field by field. It is named because a blank
// field would be skipped by ==, which makes the struct no longer plain
// memory; nothing outside this package can set it, so it is always zero.
type Flow struct {
	Proto    uint8 // IP protocol number
	pad      uint8
	Src, Dst Endpoint
}

func (f Flow) String() string { return fmt.Sprintf("%v->%v/%d", f.Src, f.Dst, f.Proto) }

// Reverse returns the flow in the opposite direction.
func (f Flow) Reverse() Flow { return Flow{Proto: f.Proto, Src: f.Dst, Dst: f.Src} }

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// EtherType values.
const EtherTypeIPv4 = 0x0800

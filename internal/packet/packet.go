// Package packet is the IP datagram the simulated data plane carries and
// its wire format, IPv4 onward: IPv4, TCP (including the options FastACK
// manipulates: MSS, window scale, SACK-permitted and SACK blocks) and UDP.
// There is no link layer; the testbed's switch and radios hand datagrams
// on by pointer.
//
// A Datagram holds decoded headers, so the simulator never re-encodes on a
// hop; Marshal and Unmarshal convert to and from wire bytes at the edges
// (pcap export, fuzzing). Transport flows are identified by hashable
// Flow/Endpoint keys usable directly as map keys.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("packet: truncated")
	ErrBadFormat = errors.New("packet: malformed header")
)

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

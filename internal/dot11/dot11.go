// Package dot11 implements wire formats for the IEEE 802.11 frames the
// paper's systems exchange over the air and parse in their control
// planes: the MAC header, beacons and probe/association management frames
// with their information elements (SSID, supported rates, HT/VHT
// capabilities — the fields behind Fig 1's advertised-capability study),
// the Channel Switch Announcement element TurboCA relies on (§4.3.1), and
// the compressed Block Ack frame FastACK's 802.11-ACK hint derives from
// (§5.2).
//
// Encoding follows the standard's little-endian layout so captures export
// cleanly (see internal/pcap); decoding is defensive and never panics on
// truncated input.
package dot11

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Errors returned by decoders.
var (
	ErrTruncated = errors.New("dot11: truncated frame")
	ErrBadFormat = errors.New("dot11: malformed frame")
)

// MAC is a 48-bit 802.11 address.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// Broadcast is the all-ones address beacons are sent to.
var Broadcast = MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}

// FrameType is the 2-bit type field.
type FrameType int

// Frame types.
const (
	TypeManagement FrameType = 0
	TypeControl    FrameType = 1
	TypeData       FrameType = 2
)

// Management subtypes used here.
const (
	SubtypeAssocReq  = 0
	SubtypeAssocResp = 1
	SubtypeProbeReq  = 4
	SubtypeProbeResp = 5
	SubtypeBeacon    = 8
	SubtypeDisassoc  = 10
	SubtypeAuth      = 11
)

// Control subtypes used here.
const (
	SubtypeBlockAckReq = 8
	SubtypeBlockAck    = 9
	SubtypeRTS         = 11
	SubtypeCTS         = 12
	SubtypeAck         = 13
)

// Data subtypes used here.
const (
	SubtypeData    = 0
	SubtypeQoSData = 8
)

// Header is the common 802.11 MAC header (3-address form, as used
// between an AP and its clients).
type Header struct {
	Type     FrameType
	Subtype  int
	ToDS     bool
	FromDS   bool
	Retry    bool
	Duration uint16 // NAV, microseconds
	Addr1    MAC    // receiver
	Addr2    MAC    // transmitter
	Addr3    MAC    // BSSID / DA / SA depending on DS bits
	Seq      uint16 // 12-bit sequence number
	Frag     uint8  // 4-bit fragment number
	// QoS holds the QoS-control field for QoS data frames; TID in the
	// low 4 bits.
	QoS    uint16
	HasQoS bool
}

// Encode appends the wire form of the header.
func (h *Header) Encode(b []byte) []byte {
	fc := uint16(h.Type)<<2 | uint16(h.Subtype)<<4 // protocol version 0
	var flags uint16
	if h.ToDS {
		flags |= 1 << 8
	}
	if h.FromDS {
		flags |= 1 << 9
	}
	if h.Retry {
		flags |= 1 << 11
	}
	fc |= flags
	b = binary.LittleEndian.AppendUint16(b, fc)
	b = binary.LittleEndian.AppendUint16(b, h.Duration)
	b = append(b, h.Addr1[:]...)
	b = append(b, h.Addr2[:]...)
	b = append(b, h.Addr3[:]...)
	sc := h.Seq<<4 | uint16(h.Frag&0x0f)
	b = binary.LittleEndian.AppendUint16(b, sc)
	if h.HasQoS {
		b = binary.LittleEndian.AppendUint16(b, h.QoS)
	}
	return b
}

// DecodeHeader parses a MAC header, returning it and the body.
func DecodeHeader(b []byte) (Header, []byte, error) {
	if len(b) < 24 {
		return Header{}, nil, ErrTruncated
	}
	fc := binary.LittleEndian.Uint16(b[0:2])
	if fc&0x3 != 0 {
		return Header{}, nil, fmt.Errorf("%w: protocol version %d", ErrBadFormat, fc&0x3)
	}
	var h Header
	h.Type = FrameType(fc >> 2 & 0x3)
	h.Subtype = int(fc >> 4 & 0xf)
	h.ToDS = fc&(1<<8) != 0
	h.FromDS = fc&(1<<9) != 0
	h.Retry = fc&(1<<11) != 0
	h.Duration = binary.LittleEndian.Uint16(b[2:4])
	copy(h.Addr1[:], b[4:10])
	copy(h.Addr2[:], b[10:16])
	copy(h.Addr3[:], b[16:22])
	sc := binary.LittleEndian.Uint16(b[22:24])
	h.Seq = sc >> 4
	h.Frag = uint8(sc & 0xf)
	body := b[24:]
	if h.Type == TypeData && h.Subtype >= 8 { // QoS data
		if len(body) < 2 {
			return Header{}, nil, ErrTruncated
		}
		h.HasQoS = true
		h.QoS = binary.LittleEndian.Uint16(body[0:2])
		body = body[2:]
	}
	return h, body, nil
}

// TID returns the traffic identifier of a QoS data frame.
func (h *Header) TID() int { return int(h.QoS & 0xf) }

func (h *Header) String() string {
	return fmt.Sprintf("802.11[%s seq=%d %v->%v]", subtypeName(h.Type, h.Subtype), h.Seq, h.Addr2, h.Addr1)
}

func subtypeName(t FrameType, s int) string {
	switch t {
	case TypeManagement:
		switch s {
		case SubtypeBeacon:
			return "beacon"
		case SubtypeProbeReq:
			return "probe-req"
		case SubtypeProbeResp:
			return "probe-resp"
		case SubtypeAssocReq:
			return "assoc-req"
		case SubtypeAssocResp:
			return "assoc-resp"
		case SubtypeAuth:
			return "auth"
		case SubtypeDisassoc:
			return "disassoc"
		}
		return "mgmt"
	case TypeControl:
		switch s {
		case SubtypeRTS:
			return "rts"
		case SubtypeCTS:
			return "cts"
		case SubtypeAck:
			return "ack"
		case SubtypeBlockAck:
			return "block-ack"
		case SubtypeBlockAckReq:
			return "bar"
		}
		return "ctl"
	default:
		if s >= 8 {
			return "qos-data"
		}
		return "data"
	}
}

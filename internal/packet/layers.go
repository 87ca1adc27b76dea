package packet

import (
	"encoding/binary"
	"fmt"
)

// IPv4 is the network-layer header (no IP options are generated; received
// options are preserved only as header length).
type IPv4 struct {
	TOS      uint8 // DSCP (high 6 bits) + ECN
	TotalLen uint16
	ID       uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst IPv4Addr
}

const ipv4HeaderLen = 20

// Encode appends the wire form of ip (with payload length payloadLen used
// to fill TotalLen) and computes the header checksum.
func (ip *IPv4) Encode(b []byte, payloadLen int) []byte {
	start := len(b)
	total := uint16(ipv4HeaderLen + payloadLen)
	b = append(b,
		0x45, // version 4, IHL 5
		ip.TOS,
		byte(total>>8), byte(total),
		byte(ip.ID>>8), byte(ip.ID),
		0x40, 0x00, // don't-fragment, offset 0
		ip.TTL,
		ip.Protocol,
		0, 0, // checksum placeholder
	)
	b = append(b, ip.Src[:]...)
	b = append(b, ip.Dst[:]...)
	cs := ipChecksum(b[start : start+ipv4HeaderLen])
	binary.BigEndian.PutUint16(b[start+10:start+12], cs)
	return b
}

// DecodeIPv4 parses an IPv4 header, returning it and the payload bytes
// bounded by TotalLen.
func DecodeIPv4(b []byte) (IPv4, []byte, error) {
	if len(b) < ipv4HeaderLen {
		return IPv4{}, nil, ErrTruncated
	}
	if b[0]>>4 != 4 {
		return IPv4{}, nil, fmt.Errorf("%w: IP version %d", ErrBadFormat, b[0]>>4)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < ipv4HeaderLen || len(b) < ihl {
		return IPv4{}, nil, fmt.Errorf("%w: IHL %d", ErrBadFormat, ihl)
	}
	var ip IPv4
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	copy(ip.Src[:], b[12:16])
	copy(ip.Dst[:], b[16:20])
	end := int(ip.TotalLen)
	if end > len(b) || end < ihl {
		return IPv4{}, nil, ErrTruncated
	}
	return ip, b[ihl:end], nil
}

// TCP flag bits.
const (
	FlagFIN = 1 << 0
	FlagSYN = 1 << 1
	FlagRST = 1 << 2
	FlagPSH = 1 << 3
	FlagACK = 1 << 4
	FlagURG = 1 << 5
)

// SACKBlock is one selective-acknowledgement range [Left, Right).
type SACKBlock struct {
	Left, Right uint32
}

// TCP is the transport header with the option set FastACK needs.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16

	// Options (encoded/decoded when present).
	MSS           uint16 // 0 = absent
	WindowScale   int    // -1 = absent
	SACKPermitted bool
	SACK          []SACKBlock // up to 4 blocks
}

// NewTCP returns a TCP header with option fields marked absent.
func NewTCP() TCP { return TCP{WindowScale: -1} }

// HasFlag reports whether all bits in mask are set.
func (t *TCP) HasFlag(mask uint8) bool { return t.Flags&mask == mask }

// FlagString renders the flags compactly, e.g. "SA" for SYN|ACK.
func (t *TCP) FlagString() string {
	s := ""
	for _, f := range []struct {
		bit  uint8
		name string
	}{{FlagFIN, "F"}, {FlagSYN, "S"}, {FlagRST, "R"}, {FlagPSH, "P"}, {FlagACK, "A"}, {FlagURG, "U"}} {
		if t.Flags&f.bit != 0 {
			s += f.name
		}
	}
	if s == "" {
		s = "."
	}
	return s
}

// sackBlocks returns how many SACK blocks fit the 40-byte TCP option
// budget alongside the other options present. A header assembled from
// hostile or fuzzed input may carry more blocks than any real sender
// could encode; emitting them all would push the data offset past its
// 4-bit field and corrupt the header.
func (t *TCP) sackBlocks() int {
	base := 0
	if t.MSS != 0 {
		base += 4
	}
	if t.WindowScale >= 0 {
		base += 3
	}
	if t.SACKPermitted {
		base += 2
	}
	n := len(t.SACK)
	if n > 4 {
		n = 4
	}
	for n > 0 && base+2+8*n > 40 {
		n--
	}
	return n
}

// optionsLen returns the padded length of the encoded options.
func (t *TCP) optionsLen() int {
	n := 0
	if t.MSS != 0 {
		n += 4
	}
	if t.WindowScale >= 0 {
		n += 3
	}
	if t.SACKPermitted {
		n += 2
	}
	if k := t.sackBlocks(); k > 0 {
		n += 2 + 8*k
	}
	return (n + 3) &^ 3 // pad to 4-byte boundary
}

// HeaderLen returns the encoded TCP header length including options.
func (t *TCP) HeaderLen() int { return 20 + t.optionsLen() }

// Encode appends the wire form of t followed by payload, computing the
// checksum over the IPv4 pseudo-header for src/dst.
func (t *TCP) Encode(b []byte, src, dst IPv4Addr, payload []byte) []byte {
	start := len(b)
	hl := t.HeaderLen()
	dataOff := byte(hl/4) << 4
	b = append(b,
		byte(t.SrcPort>>8), byte(t.SrcPort),
		byte(t.DstPort>>8), byte(t.DstPort),
	)
	b = binary.BigEndian.AppendUint32(b, t.Seq)
	b = binary.BigEndian.AppendUint32(b, t.Ack)
	b = append(b,
		dataOff,
		t.Flags,
		byte(t.Window>>8), byte(t.Window),
		0, 0, // checksum placeholder
		byte(t.Urgent>>8), byte(t.Urgent),
	)
	b = t.encodeOptions(b)
	b = append(b, payload...)
	seg := b[start:]
	cs := tcpChecksum(src, dst, ProtoTCP, seg)
	binary.BigEndian.PutUint16(seg[16:18], cs)
	return b
}

func (t *TCP) encodeOptions(b []byte) []byte {
	n := 0
	if t.MSS != 0 {
		b = append(b, 2, 4, byte(t.MSS>>8), byte(t.MSS))
		n += 4
	}
	if t.WindowScale >= 0 {
		b = append(b, 3, 3, byte(t.WindowScale))
		n += 3
	}
	if t.SACKPermitted {
		b = append(b, 4, 2)
		n += 2
	}
	if k := t.sackBlocks(); k > 0 {
		b = append(b, 5, byte(2+8*k))
		for _, blk := range t.SACK[:k] {
			b = binary.BigEndian.AppendUint32(b, blk.Left)
			b = binary.BigEndian.AppendUint32(b, blk.Right)
		}
		n += 2 + 8*k
	}
	for n%4 != 0 {
		b = append(b, 0) // end-of-options / pad
		n++
	}
	return b
}

// DecodeTCP parses a TCP header and returns it plus the payload.
func DecodeTCP(b []byte) (TCP, []byte, error) {
	if len(b) < 20 {
		return TCP{}, nil, ErrTruncated
	}
	t := NewTCP()
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	hl := int(b[12]>>4) * 4
	if hl < 20 || hl > len(b) {
		return TCP{}, nil, fmt.Errorf("%w: TCP data offset %d", ErrBadFormat, hl)
	}
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	if err := t.decodeOptions(b[20:hl]); err != nil {
		return TCP{}, nil, err
	}
	return t, b[hl:], nil
}

func (t *TCP) decodeOptions(opts []byte) error {
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case 0: // end of options
			return nil
		case 1: // NOP
			opts = opts[1:]
			continue
		}
		if len(opts) < 2 {
			return fmt.Errorf("%w: truncated TCP option", ErrBadFormat)
		}
		olen := int(opts[1])
		if olen < 2 || olen > len(opts) {
			return fmt.Errorf("%w: TCP option length %d", ErrBadFormat, olen)
		}
		body := opts[2:olen]
		switch kind {
		case 2:
			if len(body) == 2 {
				t.MSS = binary.BigEndian.Uint16(body)
			}
		case 3:
			if len(body) == 1 {
				t.WindowScale = int(body[0])
			}
		case 4:
			t.SACKPermitted = true
		case 5:
			// Cap at the 4 blocks the option format admits on the wire;
			// repeated SACK options cannot accumulate past it.
			for len(body) >= 8 && len(t.SACK) < 4 {
				t.SACK = append(t.SACK, SACKBlock{
					Left:  binary.BigEndian.Uint32(body[0:4]),
					Right: binary.BigEndian.Uint32(body[4:8]),
				})
				body = body[8:]
			}
		}
		opts = opts[olen:]
	}
	return nil
}

// UDP is the 8-byte transport header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Encode appends the wire form of u followed by payload.
func (u *UDP) Encode(b []byte, src, dst IPv4Addr, payload []byte) []byte {
	start := len(b)
	length := uint16(8 + len(payload))
	b = append(b,
		byte(u.SrcPort>>8), byte(u.SrcPort),
		byte(u.DstPort>>8), byte(u.DstPort),
		byte(length>>8), byte(length),
		0, 0,
	)
	b = append(b, payload...)
	seg := b[start:]
	cs := tcpChecksum(src, dst, ProtoUDP, seg)
	if cs == 0 {
		cs = 0xffff
	}
	binary.BigEndian.PutUint16(seg[6:8], cs)
	return b
}

// DecodeUDP parses a UDP header and returns it plus the payload.
func DecodeUDP(b []byte) (UDP, []byte, error) {
	if len(b) < 8 {
		return UDP{}, nil, ErrTruncated
	}
	var u UDP
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	if int(u.Length) < 8 || int(u.Length) > len(b) {
		return UDP{}, nil, ErrTruncated
	}
	return u, b[8:u.Length], nil
}

// ipChecksum is the ones-complement sum over an IPv4 header.
func ipChecksum(hdr []byte) uint16 {
	return finish(sum16(hdr, 0))
}

// tcpChecksum computes the TCP/UDP checksum including the pseudo-header.
func tcpChecksum(src, dst IPv4Addr, proto uint8, segment []byte) uint16 {
	var pseudo [12]byte
	copy(pseudo[0:4], src[:])
	copy(pseudo[4:8], dst[:])
	pseudo[9] = proto
	binary.BigEndian.PutUint16(pseudo[10:12], uint16(len(segment)))
	s := sum16(pseudo[:], 0)
	s = sum16(segment, s)
	return finish(s)
}

func sum16(b []byte, acc uint32) uint32 {
	for len(b) >= 2 {
		acc += uint32(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		acc += uint32(b[0]) << 8
	}
	return acc
}

func finish(s uint32) uint16 {
	for s>>16 != 0 {
		s = s&0xffff + s>>16
	}
	return ^uint16(s)
}

// VerifyTCPChecksum reports whether the checksum of a decoded TCP segment
// (header+payload bytes) is valid for the given addresses.
func VerifyTCPChecksum(src, dst IPv4Addr, segment []byte) bool {
	return tcpChecksum(src, dst, ProtoTCP, segment) == 0
}

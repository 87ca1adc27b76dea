package packet

import "fmt"

// Datagram is the in-simulator representation of one IP datagram: decoded
// headers plus a payload length. Simulators pass Datagrams by pointer to
// avoid re-encoding on every hop; Marshal/Unmarshal convert to and from
// real wire bytes so that the byte-level codec is exercised end-to-end at
// the network edges and in integration tests.
//
// PayloadLen is authoritative for sizing; Payload may be nil (synthetic
// traffic) or carry real bytes (wire mode).
type Datagram struct {
	IP         IPv4
	TCP        *TCP // exactly one of TCP/UDP is set
	UDP        *UDP
	PayloadLen int
	Payload    []byte
}

// A datagram and its transport header are made as one object: they live
// and die together, and a datagram is made per packet.
type (
	tcpDatagram struct {
		d Datagram
		t TCP
	}
	udpDatagram struct {
		d Datagram
		u UDP
	}
)

// NewTCPDatagram builds a TCP datagram between src and dst.
func NewTCPDatagram(src, dst Endpoint, payloadLen int) *Datagram {
	b := &tcpDatagram{t: NewTCP()}
	b.t.SrcPort = src.Port
	b.t.DstPort = dst.Port
	b.d = Datagram{
		IP:         IPv4{TTL: 64, Protocol: ProtoTCP, Src: src.Addr, Dst: dst.Addr},
		TCP:        &b.t,
		PayloadLen: payloadLen,
	}
	return &b.d
}

// NewUDPDatagram builds a UDP datagram between src and dst.
func NewUDPDatagram(src, dst Endpoint, payloadLen int) *Datagram {
	b := &udpDatagram{u: UDP{SrcPort: src.Port, DstPort: dst.Port}}
	b.d = Datagram{
		IP:         IPv4{TTL: 64, Protocol: ProtoUDP, Src: src.Addr, Dst: dst.Addr},
		UDP:        &b.u,
		PayloadLen: payloadLen,
	}
	return &b.d
}

// Flow returns the transport flow key of the datagram.
func (d *Datagram) Flow() Flow {
	switch {
	case d.TCP != nil:
		return Flow{
			Proto: ProtoTCP,
			Src:   Endpoint{Addr: d.IP.Src, Port: d.TCP.SrcPort},
			Dst:   Endpoint{Addr: d.IP.Dst, Port: d.TCP.DstPort},
		}
	case d.UDP != nil:
		return Flow{
			Proto: ProtoUDP,
			Src:   Endpoint{Addr: d.IP.Src, Port: d.UDP.SrcPort},
			Dst:   Endpoint{Addr: d.IP.Dst, Port: d.UDP.DstPort},
		}
	default:
		return Flow{Src: Endpoint{Addr: d.IP.Src}, Dst: Endpoint{Addr: d.IP.Dst}}
	}
}

// WireLen returns the encoded size in bytes (IP header + transport header +
// payload), the quantity that matters for airtime and queue accounting.
func (d *Datagram) WireLen() int {
	n := ipv4HeaderLen + d.PayloadLen
	switch {
	case d.TCP != nil:
		n += d.TCP.HeaderLen()
	case d.UDP != nil:
		n += 8
	}
	return n
}

// Clone returns a deep copy, used by retransmission caches so that later
// header rewrites (e.g. window clamping) do not mutate cached packets.
func (d *Datagram) Clone() *Datagram {
	var out *Datagram
	switch {
	case d.TCP != nil:
		b := &tcpDatagram{t: *d.TCP}
		if len(d.TCP.SACK) > 0 {
			b.t.SACK = append([]SACKBlock(nil), d.TCP.SACK...)
		}
		out, b.d.TCP = &b.d, &b.t
	case d.UDP != nil:
		b := &udpDatagram{u: *d.UDP}
		out, b.d.UDP = &b.d, &b.u
	default:
		out = new(Datagram)
	}
	if d.TCP != nil && d.UDP != nil { // not well formed, but copied whole
		u := *d.UDP
		out.UDP = &u
	}
	out.IP, out.PayloadLen = d.IP, d.PayloadLen
	if d.Payload != nil {
		out.Payload = append([]byte(nil), d.Payload...)
	}
	return out
}

func (d *Datagram) String() string {
	switch {
	case d.TCP != nil:
		return fmt.Sprintf("TCP %v->%v [%s] seq=%d ack=%d len=%d win=%d",
			d.IP.Src, d.IP.Dst, d.TCP.FlagString(), d.TCP.Seq, d.TCP.Ack, d.PayloadLen, d.TCP.Window)
	case d.UDP != nil:
		return fmt.Sprintf("UDP %v:%d->%v:%d len=%d",
			d.IP.Src, d.UDP.SrcPort, d.IP.Dst, d.UDP.DstPort, d.PayloadLen)
	}
	return fmt.Sprintf("IP %v->%v proto=%d len=%d", d.IP.Src, d.IP.Dst, d.IP.Protocol, d.PayloadLen)
}

// Marshal encodes the datagram to wire bytes (IPv4 onward). When Payload is
// nil, a zero-filled payload of PayloadLen is synthesized.
func (d *Datagram) Marshal() []byte {
	payload := d.Payload
	if payload == nil && d.PayloadLen > 0 {
		payload = make([]byte, d.PayloadLen)
	}
	var transport []byte
	switch {
	case d.TCP != nil:
		transport = d.TCP.Encode(nil, d.IP.Src, d.IP.Dst, payload)
	case d.UDP != nil:
		transport = d.UDP.Encode(nil, d.IP.Src, d.IP.Dst, payload)
	default:
		transport = payload
	}
	ip := d.IP
	b := ip.Encode(make([]byte, 0, ipv4HeaderLen+len(transport)), len(transport))
	return append(b, transport...)
}

// Unmarshal decodes wire bytes (IPv4 onward) into a Datagram.
func Unmarshal(b []byte) (*Datagram, error) {
	ip, rest, err := DecodeIPv4(b)
	if err != nil {
		return nil, err
	}
	d := &Datagram{IP: ip}
	switch ip.Protocol {
	case ProtoTCP:
		t, payload, err := DecodeTCP(rest)
		if err != nil {
			return nil, err
		}
		d.TCP = &t
		d.Payload = payload
		d.PayloadLen = len(payload)
	case ProtoUDP:
		u, payload, err := DecodeUDP(rest)
		if err != nil {
			return nil, err
		}
		d.UDP = &u
		d.Payload = payload
		d.PayloadLen = len(payload)
	default:
		d.Payload = rest
		d.PayloadLen = len(rest)
	}
	return d, nil
}

package dot11

import (
	"encoding/binary"

	"repro/internal/spectrum"
)

// Information element IDs an association request carries here.
const (
	IESSID            = 0
	IEHTCapabilities  = 45
	IEVHTCapabilities = 191
)

// IE is one raw information element.
type IE struct {
	ID   uint8
	Body []byte
}

// EncodeIEs appends a list of elements.
func EncodeIEs(b []byte, ies []IE) []byte {
	for _, ie := range ies {
		b = append(b, ie.ID, uint8(len(ie.Body)))
		b = append(b, ie.Body...)
	}
	return b
}

// DecodeIEs parses elements until the buffer ends; a truncated trailing
// element is an error.
func DecodeIEs(b []byte) ([]IE, error) {
	var out []IE
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, ErrTruncated
		}
		n := int(b[1])
		if len(b) < 2+n {
			return nil, ErrTruncated
		}
		out = append(out, IE{ID: b[0], Body: append([]byte(nil), b[2:2+n]...)})
		b = b[2+n:]
	}
	return out, nil
}

// Find returns the first element with the given ID.
func Find(ies []IE, id uint8) (IE, bool) {
	for _, ie := range ies {
		if ie.ID == id {
			return ie, true
		}
	}
	return IE{}, false
}

// Capabilities is the station-capability summary carried in HT/VHT
// elements — exactly what the Fig 1 study tallies from association
// requests.
type Capabilities struct {
	HT       bool
	VHT      bool
	MaxWidth spectrum.Width
	NSS      int
	SGI      bool
}

// CapabilityIEs renders the capability set as HT (and, if VHT, VHT)
// elements.
func CapabilityIEs(c Capabilities) []IE {
	var out []IE
	if !c.HT {
		return out
	}
	// HT capabilities: 26-byte body; we populate the info field's
	// 40 MHz bit, SGI bit, and the MCS-set bitmap's stream count.
	ht := make([]byte, 26)
	var info uint16
	if c.MaxWidth >= spectrum.W40 {
		info |= 1 << 1 // supported channel width set
	}
	if c.SGI {
		info |= 1 << 5
	}
	binary.LittleEndian.PutUint16(ht[0:2], info)
	for s := 0; s < c.NSS && s < 4; s++ {
		ht[3+s] = 0xff // MCS 0-7 per stream
	}
	out = append(out, IE{ID: IEHTCapabilities, Body: ht})

	if c.VHT {
		vht := make([]byte, 12)
		var vinfo uint32
		if c.MaxWidth >= spectrum.W160 {
			vinfo |= 1 << 2 // supported channel width: 160 MHz
		}
		if c.SGI {
			vinfo |= 1 << 5 // SGI for 80 MHz
		}
		binary.LittleEndian.PutUint32(vht[0:4], vinfo)
		// VHT MCS map: 2 bits per stream, 0b10 = MCS 0-9, 0b11 = none.
		mcsMap := uint16(0xffff)
		for s := 0; s < c.NSS && s < 8; s++ {
			mcsMap &^= 0x3 << (2 * s)
			mcsMap |= 0x2 << (2 * s)
		}
		binary.LittleEndian.PutUint16(vht[4:6], mcsMap) // rx map
		binary.LittleEndian.PutUint16(vht[8:10], mcsMap)
		out = append(out, IE{ID: IEVHTCapabilities, Body: vht})
	}
	return out
}

// ParseCapabilities recovers a Capabilities summary from elements.
func ParseCapabilities(ies []IE) Capabilities {
	var c Capabilities
	c.MaxWidth = spectrum.W20
	if ht, ok := Find(ies, IEHTCapabilities); ok && len(ht.Body) >= 7 {
		c.HT = true
		info := binary.LittleEndian.Uint16(ht.Body[0:2])
		if info&(1<<1) != 0 {
			c.MaxWidth = spectrum.W40
		}
		c.SGI = info&(1<<5) != 0
		for s := 0; s < 4; s++ {
			if ht.Body[3+s] != 0 {
				c.NSS = s + 1
			}
		}
	}
	if vht, ok := Find(ies, IEVHTCapabilities); ok && len(vht.Body) >= 6 {
		c.VHT = true
		vinfo := binary.LittleEndian.Uint32(vht.Body[0:4])
		c.MaxWidth = spectrum.W80
		if vinfo&(1<<2) != 0 {
			c.MaxWidth = spectrum.W160
		}
		mcsMap := binary.LittleEndian.Uint16(vht.Body[4:6])
		nss := 0
		for s := 0; s < 8; s++ {
			if mcsMap>>(2*s)&0x3 != 0x3 {
				nss = s + 1
			}
		}
		if nss > c.NSS {
			c.NSS = nss
		}
	}
	if c.NSS == 0 {
		c.NSS = 1
	}
	return c
}

// AssocRequest is the parsed form of an association request body.
type AssocRequest struct {
	CapInfo  uint16
	Interval uint16
	SSID     string
	Caps     Capabilities
}

// EncodeAssocRequest renders an association-request body — the frame the
// fleet study parses capabilities out of.
func EncodeAssocRequest(ar AssocRequest) []byte {
	b := make([]byte, 0, 48)
	b = binary.LittleEndian.AppendUint16(b, ar.CapInfo)
	b = binary.LittleEndian.AppendUint16(b, ar.Interval)
	ies := []IE{{ID: IESSID, Body: []byte(ar.SSID)}}
	ies = append(ies, CapabilityIEs(ar.Caps)...)
	return EncodeIEs(b, ies)
}

// DecodeAssocRequest parses an association-request body.
func DecodeAssocRequest(b []byte) (AssocRequest, error) {
	if len(b) < 4 {
		return AssocRequest{}, ErrTruncated
	}
	var ar AssocRequest
	ar.CapInfo = binary.LittleEndian.Uint16(b[0:2])
	ar.Interval = binary.LittleEndian.Uint16(b[2:4])
	ies, err := DecodeIEs(b[4:])
	if err != nil {
		return AssocRequest{}, err
	}
	if ssid, ok := Find(ies, IESSID); ok {
		ar.SSID = string(ssid.Body)
	}
	ar.Caps = ParseCapabilities(ies)
	return ar, nil
}

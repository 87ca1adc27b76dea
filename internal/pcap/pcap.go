// Package pcap writes libpcap capture files, so the raw IP datagrams
// crossing the testbed APs' wired ports (cmd/experiments -pcap) can be
// opened in Wireshark/tcpdump for inspection. Only the classic (non-ng)
// format is implemented; it is universally readable. Reader exists as the
// Writer's test reference.
package pcap

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/sim"
)

// LinkType selects the capture's link-layer header type (see
// https://www.tcpdump.org/linktypes.html).
type LinkType uint32

// LinkTypeRawIP frames begin directly with an IPv4/IPv6 header, the only
// link type this repository writes.
const LinkTypeRawIP LinkType = 101

const (
	magicMicros = 0xa1b2c3d4
	versionMaj  = 2
	versionMin  = 4
	defaultSnap = 262144
)

// Writer streams capture records to an io.Writer.
type Writer struct {
	w       io.Writer
	snaplen uint32
	packets int
	wrote   bool
	link    LinkType
}

// NewWriter creates a writer; the global header is emitted lazily on the
// first packet (or explicitly via Flush-like WriteHeader).
func NewWriter(w io.Writer, link LinkType) *Writer {
	return &Writer{w: w, snaplen: defaultSnap, link: link}
}

// WriteHeader emits the global file header. Calling it more than once is
// a no-op; WritePacket calls it automatically.
func (pw *Writer) WriteHeader() error {
	if pw.wrote {
		return nil
	}
	pw.wrote = true
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:4], magicMicros)
	binary.LittleEndian.PutUint16(hdr[4:6], versionMaj)
	binary.LittleEndian.PutUint16(hdr[6:8], versionMin)
	// thiszone and sigfigs stay zero.
	binary.LittleEndian.PutUint32(hdr[16:20], pw.snaplen)
	binary.LittleEndian.PutUint32(hdr[20:24], uint32(pw.link))
	_, err := pw.w.Write(hdr[:])
	return err
}

// WritePacket records one packet captured at simulation time at. The
// simulation epoch maps to Unix time zero, which keeps captures
// deterministic and diffable.
func (pw *Writer) WritePacket(at sim.Time, data []byte) error {
	if err := pw.WriteHeader(); err != nil {
		return err
	}
	capLen := uint32(len(data))
	if capLen > pw.snaplen {
		capLen = pw.snaplen
	}
	var rec [16]byte
	sec := uint32(at / sim.Second)
	usec := uint32(at % sim.Second)
	binary.LittleEndian.PutUint32(rec[0:4], sec)
	binary.LittleEndian.PutUint32(rec[4:8], usec)
	binary.LittleEndian.PutUint32(rec[8:12], capLen)
	binary.LittleEndian.PutUint32(rec[12:16], uint32(len(data)))
	if _, err := pw.w.Write(rec[:]); err != nil {
		return err
	}
	if _, err := pw.w.Write(data[:capLen]); err != nil {
		return err
	}
	pw.packets++
	return nil
}

// Packets returns how many records were written.
func (pw *Writer) Packets() int { return pw.packets }

// Reader parses capture files produced by Writer (and any classic
// little-endian microsecond pcap).
type Reader struct {
	r    io.Reader
	Link LinkType
}

// NewReader validates the global header.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != magicMicros {
		return nil, fmt.Errorf("pcap: bad magic %#x", binary.LittleEndian.Uint32(hdr[0:4]))
	}
	return &Reader{r: r, Link: LinkType(binary.LittleEndian.Uint32(hdr[20:24]))}, nil
}

// Next returns the next packet, or io.EOF at end of file.
func (pr *Reader) Next() (at sim.Time, data []byte, err error) {
	var rec [16]byte
	if _, err := io.ReadFull(pr.r, rec[:]); err != nil {
		return 0, nil, err
	}
	sec := binary.LittleEndian.Uint32(rec[0:4])
	usec := binary.LittleEndian.Uint32(rec[4:8])
	capLen := binary.LittleEndian.Uint32(rec[8:12])
	if capLen > 1<<24 {
		return 0, nil, fmt.Errorf("pcap: unreasonable record length %d", capLen)
	}
	data = make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return 0, nil, err
	}
	return sim.Time(sec)*sim.Second + sim.Time(usec), data, nil
}

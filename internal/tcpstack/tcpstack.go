// Package tcpstack implements event-driven TCP endpoints — a NewReno
// sender with SACK and a receiver with delayed cumulative ACKs — faithful
// enough to reproduce the pathologies §5.1 of the paper attributes to TCP
// over 802.11ac: self-clocked release of data driven by ACK arrival times,
// congestion-window collapse on spurious loss signals, and receive-window
// flow control.
//
// Endpoints are transport-agnostic: they emit datagrams through an Output
// callback and are fed with Deliver. The testbed glue wires them through
// the wired switch and the MAC simulator.
package tcpstack

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// The endpoints' fixed parameters: a mid-2010s Linux/Windows host.
const (
	// MSS is the TCP maximum segment size used throughout the testbed
	// (1500 MTU − 20 IP − 32 TCP w/ options).
	MSS = 1448
	// initCwnd is the initial window in segments (RFC 6928).
	initCwnd = 10
	// wScale is the window-scale shift advertised by both ends.
	wScale = 7
	// minRTO is the Linux-style RTO floor, maxRTO its ceiling.
	minRTO = 200 * sim.Millisecond
	maxRTO = 60 * sim.Second
)

// Config parameterises an endpoint pair. Both ends always negotiate SACK.
type Config struct {
	MaxCwnd    int      // send-buffer cap in segments; the paper's OS default is 770
	RcvBuf     int      // receiver buffer in bytes
	DelACKSegs int      // delayed-ACK segment threshold (2)
	DelACKTime sim.Time // delayed-ACK timeout (40 ms quickack-era default)
}

// DefaultConfig mirrors a mid-2010s Linux/Windows host. The 512 KiB
// receive buffer matches an autotuned OSX-era client; it is rarely the
// binding constraint, so both modes are shaped by congestion control and
// the AP's driver pool, as in the paper's testbed.
func DefaultConfig() Config {
	return Config{
		MaxCwnd:    770,
		RcvBuf:     512 << 10,
		DelACKSegs: 2,
		DelACKTime: 40 * sim.Millisecond,
	}
}

// Output is how an endpoint hands a datagram to the network.
type Output func(d *packet.Datagram)

// Package dot11 is the 802.11 association-request codec behind Fig 1's
// advertised-capability study (§3.2.1): a client's HT/VHT capabilities are
// rendered as information elements inside an association-request body and
// read back from the decoded bytes, the way a production AP learns them.
// Nothing else in the repository goes through 802.11 wire formats:
// backend/disruption.go models CSA as a per-client flag
// (topo.ClientInfo.SupportsCSA), and FastACK's 802.11-ACK hint is the
// delivery feedback package mac reports for each MPDU.
//
// Encoding follows the standard's little-endian layout; decoding is
// defensive and never panics on truncated input.
package dot11

import "errors"

// ErrTruncated is returned by decoders for input that ends mid-field.
var ErrTruncated = errors.New("dot11: truncated frame")

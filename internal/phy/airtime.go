package phy

// MAC/PHY timing constants for 5 GHz OFDM (802.11ac), in microseconds.
// These govern both real airtime computation and the MAC simulator's clock.
const (
	SIFSus        = 16 // short interframe space, 5 GHz
	SlotUs        = 9  // slot time
	DIFSus        = SIFSus + 2*SlotUs
	VHTPreambleUs = 44.0 // L-STF+L-LTF+L-SIG+VHT-SIG-A+VHT-STF+VHT-LTFx2+VHT-SIG-B (3x3 typical)
	LegacyRateMbp = 24.0 // control frame (ACK/BA/RTS/CTS) rate
	BlockAckBytes = 32   // compressed block ack frame
	AckBytes      = 14
	RTSBytes      = 20
	CTSBytes      = 14
	MPDUDelimiter = 4  // A-MPDU delimiter bytes per subframe
	MACHeaderLen  = 34 // QoS data header + FCS
	SGIns         = 400
)

// EDCA access category parameters (802.11e), per Table 8 of the standard.
type EDCAParams struct {
	AIFSN       int
	CWMin       int
	CWMax       int
	TXOPLimitUs int
}

// AccessCategory enumerates the four 802.11e ACs (§3.2.4).
type AccessCategory int

const (
	ACBK AccessCategory = iota // background
	ACBE                       // best effort
	ACVI                       // video
	ACVO                       // voice
)

func (a AccessCategory) String() string {
	switch a {
	case ACBK:
		return "BK"
	case ACBE:
		return "BE"
	case ACVI:
		return "VI"
	case ACVO:
		return "VO"
	}
	return "?"
}

// EDCA returns the standard contention parameters for the category.
func (a AccessCategory) EDCA() EDCAParams {
	switch a {
	case ACBK:
		return EDCAParams{AIFSN: 7, CWMin: 15, CWMax: 1023, TXOPLimitUs: 0}
	case ACVI:
		return EDCAParams{AIFSN: 2, CWMin: 7, CWMax: 15, TXOPLimitUs: 3008}
	case ACVO:
		return EDCAParams{AIFSN: 2, CWMin: 3, CWMax: 7, TXOPLimitUs: 1504}
	default: // ACBE
		return EDCAParams{AIFSN: 3, CWMin: 15, CWMax: 1023, TXOPLimitUs: 2528}
	}
}

// AIFSus returns the arbitration interframe space duration.
func (p EDCAParams) AIFSus() float64 { return SIFSus + float64(p.AIFSN)*SlotUs }

// FrameAirtimeUs returns the over-the-air duration (µs) of an A-MPDU
// carrying mpduCount subframes of mpduBytes each at rate r, excluding
// contention but including preamble. A single-MPDU frame omits delimiters.
func FrameAirtimeUs(r Rate, mpduCount, mpduBytes int) float64 {
	if mpduCount <= 0 {
		return 0
	}
	perMPDU := mpduBytes + MACHeaderLen
	if mpduCount > 1 {
		perMPDU += MPDUDelimiter
	}
	bits := float64(mpduCount*perMPDU) * 8
	return VHTPreambleUs + bits/r.Mbps()
}

// BlockAckAirtimeUs is the duration of the SIFS + block ACK response.
func BlockAckAirtimeUs() float64 {
	return SIFSus + legacyFrameUs(BlockAckBytes)
}

// RTSCTSOverheadUs is the RTS + SIFS + CTS + SIFS exchange preceding data.
func RTSCTSOverheadUs() float64 {
	return legacyFrameUs(RTSBytes) + SIFSus + legacyFrameUs(CTSBytes) + SIFSus
}

// legacyFrameUs is the duration of a control frame at the legacy rate with
// a legacy (20 µs) preamble.
func legacyFrameUs(bytes int) float64 {
	return 20 + float64(bytes)*8/LegacyRateMbp
}

// AckTimeoutUs is how long a transmitter waits for a missing ACK/BA before
// concluding the exchange failed (EIFS-style recovery).
const AckTimeoutUs = SIFSus + SlotUs + 25

// MaxAMPDUSubframes is the block-ack window limit on subframes per A-MPDU.
const MaxAMPDUSubframes = 64

// MaxAMPDUDurationUs caps a single transmission at 5.3 ms of airtime
// (802.11ac wave-2, footnote 6 of the paper).
const MaxAMPDUDurationUs = 5300.0

// MaxAggregateForRate returns the largest subframe count that fits within
// both the block-ack window and the airtime cap at rate r.
func MaxAggregateForRate(r Rate, mpduBytes int) int {
	n := MaxAMPDUSubframes
	for n > 1 && FrameAirtimeUs(r, n, mpduBytes) > MaxAMPDUDurationUs {
		n--
	}
	return n
}

// EffectiveMACThroughputMbps estimates the saturated single-station MAC
// throughput at rate r with aggregation aggr: payload bits divided by the
// full exchange time (DIFS + average backoff + frame + block ACK).
func EffectiveMACThroughputMbps(r Rate, aggr, mpduBytes int) float64 {
	if aggr <= 0 {
		return 0
	}
	be := ACBE.EDCA()
	avgBackoff := float64(be.CWMin) / 2 * SlotUs
	exchange := be.AIFSus() + avgBackoff + FrameAirtimeUs(r, aggr, mpduBytes) + BlockAckAirtimeUs()
	payloadBits := float64(aggr*mpduBytes) * 8
	return payloadBits / exchange
}

// UtilizationCapacity estimates the fraction of nominal capacity available
// on a channel given measured utilization u in [0,1]: a saturating station
// can still grab roughly the idle share.
func UtilizationCapacity(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	return 1 - u
}

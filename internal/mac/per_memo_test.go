package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// The PER memo in completeFrame is exact. A-MPDUs alternate 1500 B data
// MPDUs with 52 B pure ACKs toward one destination on marginal links, so
// the length, and with it the PER, changes at nearly every subframe. The
// delivered, failed, dropped and retry counts are the ones recorded with
// PER computed afresh for every MPDU. The AC_BK row drops five MPDUs at
// that category's own retry limit (4): each failed five times and was
// never delivered, so failed exceeds retries by 25.
func TestPERMemoOnMixedAggregates(t *testing.T) {
	// mixed counts the frames that carried both lengths.
	type counts struct{ delivered, failed, dropped, retries, frames, mixed int64 }
	for _, c := range []struct {
		snr  float64
		ac   phy.AccessCategory
		want counts
	}{
		{14, phy.ACBE, counts{2000, 121, 0, 121, 78, 77}},
		{18, phy.ACBE, counts{2000, 176, 0, 176, 242, 238}},
		{22, phy.ACBE, counts{2000, 56, 0, 56, 278, 274}},
		{13, phy.ACBK, counts{1995, 456, 5, 431, 58, 52}},
	} {
		md := newTestMedium(c.snr)
		tx := md.AddStation(stationCfg("tx"))
		rx := md.AddStation(stationCfg("rx"))
		var got counts
		tx.OnDelivered = func(m *MPDU, ok bool, _ sim.Time) {
			if ok {
				got.retries += int64(m.Retries)
			}
		}
		md.OnTransmit = func(_ FrameReport, ms []*MPDU) {
			for _, m := range ms[1:] {
				if m.Dgram.WireLen() != ms[0].Dgram.WireLen() {
					got.mixed++
					return
				}
			}
		}
		sent := 0
		stop := md.Engine().Ticker(500*sim.Microsecond, func(*sim.Engine) {
			for k := 0; k < 8 && sent < 2000; k++ {
				n := 1460 // 1500 B on the wire
				if sent%2 == 1 {
					n = 12 // 52 B: a pure ACK with its timestamp option
				}
				tx.Enqueue(dgram(n), rx.ID, c.ac)
				sent++
			}
		})
		md.Engine().RunUntil(2 * sim.Second)
		stop()
		md.Engine().Run()
		st := tx.Stats()
		got.delivered, got.failed, got.dropped, got.frames = st.Delivered, st.TxMPDUs-st.Delivered, st.Dropped, st.TxFrames
		if got != c.want {
			t.Errorf("SNR %v, %v: %+v, want %+v", c.snr, c.ac, got, c.want)
		}
	}
}

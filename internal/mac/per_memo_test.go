package mac

import (
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// The PER memo in completeFrame is exact. A-MPDUs alternate 1500 B data
// MPDUs with 52 B pure ACKs toward one destination on marginal links, so
// the length, and with it the PER, changes at nearly every subframe. The
// delivered, failed, dropped and retry counts are the ones recorded before
// the memo, when PER was computed afresh for every MPDU.
func TestPERMemoOnMixedAggregates(t *testing.T) {
	// mixed counts the frames that carried both lengths.
	type counts struct{ delivered, failed, dropped, retries, frames, mixed int64 }
	for _, c := range []struct {
		snr        float64
		retryLimit int
		want       counts
	}{
		{14, 0, counts{2000, 121, 0, 121, 78, 77}},
		{18, 0, counts{2000, 176, 0, 176, 242, 238}},
		{22, 0, counts{2000, 56, 0, 56, 278, 274}},
		{14, 1, counts{1976, 149, 24, 101, 80, 77}},
	} {
		md := newTestMedium(c.snr)
		cfg := stationCfg("tx")
		cfg.RetryLimit = c.retryLimit
		tx := md.AddStation(cfg)
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
				tx.Enqueue(dgram(n), rx.ID, phy.ACBE)
				sent++
			}
		})
		md.Engine().RunUntil(2 * sim.Second)
		stop()
		md.Engine().Run()
		st := tx.Stats()
		got.delivered, got.failed, got.dropped, got.frames = st.Delivered, st.TxMPDUs-st.Delivered, st.Dropped, st.TxFrames
		if got != c.want {
			t.Errorf("SNR %v, retry limit %d: %+v, want %+v", c.snr, c.retryLimit, got, c.want)
		}
	}
}

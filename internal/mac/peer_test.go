package mac

import (
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// refLinkMap is the pair state the peer rows replaced, kept as the reference
// they are held to: SNR and audibility in two maps keyed by the ordered pair.
type refLinkMap struct {
	snr        map[[2]StationID]float64
	hearing    map[[2]StationID]bool
	defaultSNR float64
}

func linkKey(a, b StationID) [2]StationID {
	if a > b {
		a, b = b, a
	}
	return [2]StationID{a, b}
}

func (r *refLinkMap) SNR(a, b StationID) float64 {
	if v, ok := r.snr[linkKey(a, b)]; ok {
		return v
	}
	return r.defaultSNR
}

func (r *refLinkMap) hears(a, b StationID) bool {
	if v, ok := r.hearing[linkKey(a, b)]; ok && a != b {
		return v
	}
	return true
}

// The peer rows hold what the maps they replaced held.
func TestPeerRowsMatchMaps(t *testing.T) {
	t.Run("PairState", pairStateMatchesMaps)
	t.Run("TIDSequences", tidSequencesIndependent)
}

// Any interleaving of SetSNR, SetHearing and AddStation reads back from the
// rows what it read back from the pair-keyed maps: in both argument orders,
// defaults for pairs never set, and for pairs whose row was made by the
// other kind of call or by a later, longer table.
func pairStateMatchesMaps(t *testing.T) {
	for seed := int64(0); seed < 320; seed++ {
		rng := rand.New(rand.NewSource(seed))
		md := newTestMedium(35)
		ref := &refLinkMap{snr: map[[2]StationID]float64{}, hearing: map[[2]StationID]bool{}, defaultSNR: 35}
		md.AddStation(stationCfg("s"))
		for step := 0; step < 60; step++ {
			n := len(md.stations)
			a, b := StationID(rng.Intn(n)), StationID(rng.Intn(n))
			switch op := rng.Intn(10); {
			case op == 0 && n < 14:
				md.AddStation(stationCfg("s"))
			case op < 6:
				v := 10 + 30*rng.Float64()
				md.SetSNR(a, b, v)
				ref.snr[linkKey(a, b)] = v
			default:
				audible := rng.Intn(3) == 0
				md.SetHearing(a, b, audible)
				ref.hearing[linkKey(a, b)] = audible
			}
			for x := StationID(0); int(x) < len(md.stations); x++ {
				for y := StationID(0); int(y) < len(md.stations); y++ {
					if got, want := md.SNR(x, y), ref.SNR(x, y); got != want || md.SNR(y, x) != want {
						t.Fatalf("seed %d step %d: SNR(%d,%d) = %v, SNR(%d,%d) = %v, want %v",
							seed, step, x, y, got, y, x, md.SNR(y, x), want)
					}
					if got, want := md.hears(x, y), ref.hears(x, y); got != want || md.hears(y, x) != want {
						t.Fatalf("seed %d step %d: hears(%d,%d) = %v, hears(%d,%d) = %v, want %v",
							seed, step, x, y, got, y, x, md.hears(y, x), want)
					}
				}
			}
		}
	}
}

// Transmit-side sequence numbers are per (peer, AC): toward two peers on two
// categories, each of the four streams numbers its MPDUs 0, 1, 2, … on a
// clean link, whatever order the streams are served in.
func tidSequencesIndependent(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	peers := []*Station{md.AddStation(stationCfg("p1")), md.AddStation(stationCfg("p2"))}
	type stream struct {
		dst StationID
		ac  phy.AccessCategory
	}
	got := map[stream][]uint32{}
	for _, p := range peers {
		p := p
		p.OnReceive = func(m *MPDU, _ sim.Time) {
			k := stream{p.ID, m.AC}
			got[k] = append(got[k], m.tidSeq)
		}
	}
	want := map[stream]int{}
	for i := 0; i < 120; i++ {
		k := stream{peers[i%2].ID, []phy.AccessCategory{phy.ACBE, phy.ACVI}[i/2%2]}
		// Uneven streams: one a third the length of the others.
		if k.dst == peers[1].ID && k.ac == phy.ACVI && i%3 != 0 {
			continue
		}
		tx.Enqueue(dgram(1400), k.dst, k.ac)
		want[k]++
	}
	md.Engine().Run()
	if len(got) != 4 {
		t.Fatalf("%d streams received, want 4", len(got))
	}
	for k, seqs := range got {
		if len(seqs) != want[k] {
			t.Fatalf("stream %+v: %d MPDUs, want %d", k, len(seqs), want[k])
		}
		for i, seq := range seqs {
			if seq != uint32(i) {
				t.Fatalf("stream %+v: MPDU %d carries sequence %d", k, i, seq)
			}
		}
	}
}

// A BAR advance that arrives before the TID's first MPDU — the first MPDU of
// a (transmitter, AC) exhausted its retries — moves the window: what follows
// is released, not held behind sequence 0 for ever.
func TestReorderAdvanceBeforeFirstArrival(t *testing.T) {
	md := newTestMedium(45)
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	var released []uint32
	rx.OnReceive = func(m *MPDU, _ sim.Time) { released = append(released, m.tidSeq) }

	rx.reorderAdvance(tx.ID, phy.ACBE, 0, 0)
	for seq := uint32(1); seq <= 200; seq++ {
		m := mkMPDU(rx.ID, 100)
		m.Src, m.tidSeq, m.tidSeqSet = tx.ID, seq, true
		rx.reorderDeliver(m, 0)
	}
	if len(released) != 200 {
		t.Fatalf("released %d of 200 after an advance past sequence 0", len(released))
	}
	for i, seq := range released {
		if seq != uint32(i)+1 {
			t.Fatalf("release %d is sequence %d", i, seq)
		}
	}
	if held := len(rx.peers[tx.ID].rx[phy.ACBE].held); held != 0 {
		t.Fatalf("%d MPDUs still held", held)
	}
}

// The tables grow while they are in use. A third station joins a medium
// that is already carrying lossy traffic, and the receiver first reaches it
// from inside OnReceive — in the middle of a reorder flush — by enqueueing
// toward it, setting the pair's SNR and asking for its rate controller:
// the receiver's queue table and peer table both move under the flush.
// Everything sent still arrives once and in order, on both links.
func TestRowsGrowUnderTraffic(t *testing.T) {
	md := newTestMedium(18) // marginal: subframes fail, the reorder buffer holds
	tx := md.AddStation(stationCfg("tx"))
	rx := md.AddStation(stationCfg("rx"))
	var third *Station
	var atRx, atThird []uint32
	relayed := 0
	rx.OnReceive = func(m *MPDU, _ sim.Time) {
		atRx = append(atRx, m.tidSeq)
		if third == nil {
			return
		}
		if relayed == 0 {
			// First contact waits for a flush that has more to release
			// after this MPDU, so the tables move under a live loop.
			rb := rx.peers[tx.ID].rx[phy.ACBE]
			if _, more := rb.held[rb.next]; !more {
				return
			}
			md.SetSNR(rx.ID, third.ID, 45)
			rx.rateFor(third.ID)
		}
		rx.Enqueue(dgram(1400), third.ID, phy.ACBE)
		relayed++
	}
	const n = 400
	sent, dropped := 0, 0
	tx.OnDelivered = func(_ *MPDU, ok bool, _ sim.Time) {
		if !ok {
			dropped++
		}
	}
	stop := md.Engine().Ticker(200*sim.Microsecond, func(*sim.Engine) {
		if sent < n {
			tx.Enqueue(dgram(1400), rx.ID, phy.ACBE)
			sent++
		}
	})
	md.Engine().Schedule(30*sim.Millisecond, func(*sim.Engine) {
		if len(atRx) == 0 || len(atRx) == n {
			t.Errorf("third station joins after %d of %d deliveries: not mid-traffic", len(atRx), n)
		}
		third = md.AddStation(stationCfg("third"))
		third.OnReceive = func(m *MPDU, _ sim.Time) { atThird = append(atThird, m.tidSeq) }
	})
	md.Engine().RunUntil(2 * sim.Second)
	stop()

	if len(rx.peers) != 3 || len(rx.queues[phy.ACBE].byDst) != 3 || len(third.peers) != 2 {
		t.Fatalf("tables: rx.peers %d, rx queue %d, third.peers %d; want 3, 3, 2",
			len(rx.peers), len(rx.queues[phy.ACBE].byDst), len(third.peers))
	}
	if relayed == 0 || len(atRx)+dropped != n || len(atThird) != relayed {
		t.Fatalf("tx→rx %d delivered + %d dropped of %d; rx→third %d of %d", len(atRx), dropped, n, len(atThird), relayed)
	}
	for _, seqs := range [][]uint32{atRx, atThird} {
		for i := 1; i < len(seqs); i++ {
			if seqs[i] <= seqs[i-1] {
				t.Fatalf("out of order: %d after %d", seqs[i], seqs[i-1])
			}
		}
	}
}

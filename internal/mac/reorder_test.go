package mac

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/phy"
	"repro/internal/sim"
)

// refReorder is the reorder buffer before its in-order fast path, kept as
// the reference it is held to: every arrival at or above the window start
// goes through the map, and a flush takes it out again.
type refReorder struct {
	next    map[[2]int]uint32
	held    map[[2]int]map[uint32]*MPDU
	release func(*MPDU)
}

func reorderKey(src StationID, ac phy.AccessCategory) [2]int { return [2]int{int(src), int(ac)} }

func (r *refReorder) deliver(m *MPDU) {
	k := reorderKey(m.Src, m.AC)
	if m.tidSeq < r.next[k] {
		return
	}
	if r.held[k] == nil {
		r.held[k] = map[uint32]*MPDU{}
	}
	r.held[k][m.tidSeq] = m
	r.flush(k)
}

func (r *refReorder) flush(k [2]int) {
	for {
		m, ok := r.held[k][r.next[k]]
		if !ok {
			return
		}
		delete(r.held[k], r.next[k])
		r.next[k]++
		r.release(m)
	}
}

func (r *refReorder) advance(src StationID, ac phy.AccessCategory, dropped uint32) {
	k := reorderKey(src, ac)
	for seq := r.next[k]; seq <= dropped; seq++ {
		if m, ok := r.held[k][seq]; ok {
			delete(r.held[k], seq)
			r.release(m)
		}
	}
	if r.next[k] <= dropped {
		r.next[k] = dropped + 1
	}
	r.flush(k)
}

// The in-order fast path releases exactly what the map-only buffer did, in
// the same order and as the same MPDUs. Each seed scripts two transmitters
// on two access categories: arrivals scrambled around the window start,
// duplicates of released and of held sequences, and BAR advances. After
// every step the window start and the held set match as well.
func TestReorderFastPathMatchesMapOnly(t *testing.T) {
	for seed := int64(0); seed < 240; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { reorderScript(t, seed) })
	}
}

func reorderScript(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	md := newTestMedium(45)
	rx := md.AddStation(stationCfg("rx"))
	srcs := []*Station{md.AddStation(stationCfg("a")), md.AddStation(stationCfg("b"))}
	acs := []phy.AccessCategory{phy.ACBE, phy.ACVI}

	var got, want []*MPDU
	rx.OnReceive = func(m *MPDU, _ sim.Time) { got = append(got, m) }
	ref := &refReorder{
		next:    map[[2]int]uint32{},
		held:    map[[2]int]map[uint32]*MPDU{},
		release: func(m *MPDU) { want = append(want, m) },
	}
	// sent remembers each stream's MPDUs by sequence, so a duplicate
	// arrival is the same MPDU again, as a retried subframe is.
	sent := map[[2]int]map[uint32]*MPDU{}
	mpdu := func(src StationID, ac phy.AccessCategory, seq uint32) *MPDU {
		k := reorderKey(src, ac)
		if sent[k] == nil {
			sent[k] = map[uint32]*MPDU{}
		}
		if m, ok := sent[k][seq]; ok && rng.Intn(2) == 0 {
			return m
		}
		m := mkMPDU(rx.ID, 100)
		m.Src, m.AC, m.tidSeq, m.tidSeqSet = src, ac, seq, true
		sent[k][seq] = m
		return m
	}

	for step := 0; step < 300; step++ {
		src, ac := srcs[rng.Intn(len(srcs))].ID, acs[rng.Intn(len(acs))]
		k := reorderKey(src, ac)
		next := ref.next[k]
		switch op := rng.Intn(10); {
		case op < 4: // the one the window waits for
			m := mpdu(src, ac, next)
			rx.reorderDeliver(m, 0)
			ref.deliver(m)
		case op < 7: // ahead of the window, a hole behind it
			m := mpdu(src, ac, next+1+uint32(rng.Intn(6)))
			rx.reorderDeliver(m, 0)
			ref.deliver(m)
		case op < 8: // a duplicate of something already released
			if next == 0 {
				continue
			}
			m := mpdu(src, ac, next-1-uint32(rng.Intn(int(min(next, 4)))))
			rx.reorderDeliver(m, 0)
			ref.deliver(m)
		default: // the transmitter gives up on a sequence at or past the window
			dropped := next + uint32(rng.Intn(4))
			rx.reorderAdvance(src, ac, dropped, 0)
			ref.advance(src, ac, dropped)
		}

		if len(got) != len(want) {
			t.Fatalf("step %d: released %d MPDUs, reference %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("step %d: release %d is %v, reference %v", step, i, got[i], want[i])
			}
		}
		rb := &rx.peer(src).rx[ac]
		if rb.next != ref.next[k] || len(rb.held) != len(ref.held[k]) {
			t.Fatalf("step %d: next %d holding %d, reference next %d holding %d",
				step, rb.next, len(rb.held), ref.next[k], len(ref.held[k]))
		}
		for seq, m := range ref.held[k] {
			if rb.held[seq] != m {
				t.Fatalf("step %d: sequence %d held as %v, reference %v", step, seq, rb.held[seq], m)
			}
		}
	}
}

package mac

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
)

func mkMPDU(dst StationID, n int) *MPDU {
	return &MPDU{
		Dgram: packet.NewTCPDatagram(
			packet.Endpoint{Addr: packet.IPv4Addr{1}, Port: 1},
			packet.Endpoint{Addr: packet.IPv4Addr{2}, Port: 2}, n),
		Dst: dst, AC: phy.ACBE,
	}
}

// One destination's deque, driven the way the MAC drives it: enqueue at the
// back, a retry at the front, aggregates popped from the front.
func TestDequeOrder(t *testing.T) {
	q := newACQueue()
	for i := 0; i < 5; i++ {
		q.enqueue(mkMPDU(0, i+1))
	}
	q.requeueFront(mkMPDU(0, 99))
	if q.depthFor(0) != 6 || q.count != 6 {
		t.Fatalf("depth = %d, count = %d", q.depthFor(0), q.count)
	}
	if got := q.popFor(0, 1); len(got) != 1 || got[0].Dgram.PayloadLen != 99 {
		t.Fatalf("front = %v", got)
	}
	for i, got := range q.popFor(0, 64) {
		if got.Dgram.PayloadLen != i+1 {
			t.Fatalf("fifo broken at %d", i)
		}
	}
	if q.depthFor(0) != 0 || q.count != 0 || len(q.popFor(0, 1)) != 0 {
		t.Fatal("pop from empty")
	}
}

// Property: under any interleaving of enqueue/requeue/pop/flush operations,
// the acQueue's count matches the ground truth and the round-robin rotation
// never contains duplicates.
func TestQuickACQueueInvariants(t *testing.T) {
	f := func(ops []uint8) bool {
		q := newACQueue()
		count := 0
		for _, op := range ops {
			dst := StationID(op % 4)
			switch op % 5 {
			case 0, 1: // enqueue
				q.enqueue(mkMPDU(dst, int(op)+1))
				count++
			case 2: // requeue front
				q.requeueFront(mkMPDU(dst, int(op)+1))
				count++
			case 3: // pop a burst for the next dst
				if d, ok := q.nextDst(); ok {
					count -= len(q.popFor(d, 3))
				}
			case 4: // flush one destination, as a roam does
				count -= len(q.popFor(dst, q.depthFor(dst)))
			}
			total := 0
			for d := range q.byDst {
				total += q.depthFor(d)
			}
			if q.count != count || total != count {
				return false
			}
			seen := map[StationID]bool{}
			for _, id := range q.order {
				if seen[id] {
					return false // duplicate rotation slot
				}
				seen[id] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the receive-side reorder buffer releases every delivered
// MPDU exactly once and in tidSeq order, for any delivery/drop pattern.
func TestQuickReorderBufferInvariants(t *testing.T) {
	f := func(pattern []bool) bool {
		if len(pattern) == 0 {
			return true
		}
		var released []uint32
		md := newTestMedium(45)
		tx := md.AddStation(stationCfg("tx"))
		rx := md.AddStation(stationCfg("rx"))
		rx.OnReceive = func(m *MPDU, _ sim.Time) { released = append(released, m.tidSeq) }

		held := map[uint32]*MPDU{}
		for i, delivered := range pattern {
			m := mkMPDU(rx.ID, 100)
			m.Src = tx.ID
			m.tidSeq = uint32(i)
			m.tidSeqSet = true
			if delivered {
				held[uint32(i)] = m
			}
		}
		// Deliver the survivors in a scrambled order, then advance over
		// the dropped ones in order (as the transmitter would).
		for i := len(pattern) - 1; i >= 0; i-- {
			if m, ok := held[uint32(i)]; ok {
				rx.reorderDeliver(m, 0)
			}
		}
		for i, delivered := range pattern {
			if !delivered {
				rx.reorderAdvance(tx.ID, phy.ACBE, uint32(i), 0)
			}
		}
		// Every delivered MPDU released exactly once, in order.
		want := 0
		for _, delivered := range pattern {
			if delivered {
				want++
			}
		}
		if len(released) != want {
			return false
		}
		for i := 1; i < len(released); i++ {
			if released[i] <= released[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

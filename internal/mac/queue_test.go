package mac

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/seqspace"
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
	q := new(acQueue)
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

// refACQueue is the map-backed queue acQueue replaced, kept as the
// reference its slices are held to: one deque per destination and the
// rotation's membership guard, both keyed by StationID.
type refACQueue struct {
	byDst   map[StationID]*seqspace.Ring[*MPDU]
	order   []StationID
	inOrder map[StationID]bool
	next    int
	count   int
}

func newRefACQueue() *refACQueue {
	return &refACQueue{byDst: map[StationID]*seqspace.Ring[*MPDU]{}, inOrder: map[StationID]bool{}}
}

func (q *refACQueue) dequeFor(dst StationID) *seqspace.Ring[*MPDU] {
	d, ok := q.byDst[dst]
	if !ok {
		d = &seqspace.Ring[*MPDU]{}
		q.byDst[dst] = d
	}
	if !q.inOrder[dst] {
		q.inOrder[dst] = true
		q.order = append(q.order, dst)
	}
	return d
}

func (q *refACQueue) enqueue(m *MPDU) {
	q.dequeFor(m.Dst).PushBack(m)
	q.count++
}

func (q *refACQueue) requeueFront(m *MPDU) {
	q.dequeFor(m.Dst).Insert(0, m)
	q.count++
}

func (q *refACQueue) nextDst() (StationID, bool) {
	for len(q.order) > 0 {
		if q.next >= len(q.order) {
			q.next = 0
		}
		dst := q.order[q.next]
		if d := q.byDst[dst]; d != nil && d.Len() > 0 {
			q.next++
			return dst, true
		}
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
		delete(q.inOrder, dst)
	}
	return 0, false
}

func (q *refACQueue) popFor(dst StationID, max int) []*MPDU {
	d := q.byDst[dst]
	if d == nil {
		return nil
	}
	n := min(d.Len(), max)
	out := make([]*MPDU, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.PopFront())
	}
	q.count -= n
	return out
}

func (q *refACQueue) depthFor(dst StationID) int {
	if d := q.byDst[dst]; d != nil {
		return d.Len()
	}
	return 0
}

// Property: under any interleaving of enqueue/requeue/pop/flush operations
// the acQueue does what the map-backed queue it replaced does — the same
// destination from nextDst, the same MPDUs from popFor, the same depths and
// count after every step — its count matches the ground truth, and the
// round-robin rotation never contains duplicates. Destinations run to 40,
// so the table grows in the middle of a string, and depths are read for
// destinations the table has never reached.
func TestQuickACQueueInvariants(t *testing.T) {
	const dsts = 40
	same := func(a, b []*MPDU) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	f := func(ops []uint16) bool {
		q, ref := new(acQueue), newRefACQueue()
		count := 0
		for _, op := range ops {
			dst := StationID(op / 5 % dsts)
			switch op % 5 {
			case 0, 1: // enqueue
				m := mkMPDU(dst, int(op)+1)
				q.enqueue(m)
				ref.enqueue(m)
				count++
			case 2: // requeue front
				m := mkMPDU(dst, int(op)+1)
				q.requeueFront(m)
				ref.requeueFront(m)
				count++
			case 3: // pop a burst for the next dst
				d, ok := q.nextDst()
				rd, rok := ref.nextDst()
				if d != rd || ok != rok {
					return false
				}
				if ok {
					got := q.popFor(d, 3)
					if !same(got, ref.popFor(d, 3)) {
						return false
					}
					count -= len(got)
				}
			case 4: // flush one destination, as a roam does
				got := q.popFor(dst, q.depthFor(dst))
				if !same(got, ref.popFor(dst, ref.depthFor(dst))) {
					return false
				}
				count -= len(got)
			}
			total := 0
			for d := StationID(0); d < dsts; d++ {
				if q.depthFor(d) != ref.depthFor(d) {
					return false
				}
				total += q.depthFor(d)
			}
			if q.count != count || ref.count != count || total != count {
				return false
			}
			seen := map[StationID]bool{}
			for i, id := range q.order {
				if seen[id] || id != ref.order[i] {
					return false // duplicate rotation slot, or another rotation
				}
				seen[id] = true
			}
			if len(q.order) != len(ref.order) || len(q.byDst) > dsts {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, MaxCountScale: 0}); err != nil {
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

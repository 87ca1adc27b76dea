package mac

import "repro/internal/seqspace"

// acQueue holds one deque per destination within one access category —
// aggregates pop a deque's head, retries go back on at its head — and
// serves destinations round-robin, mirroring the per-TID-per-STA queue
// structure of real AP drivers. Round-robin among stations is what gives
// CSMA its per-station (not per-packet) fairness.
type acQueue struct {
	byDst []dstQueue  // by destination StationID, grown on demand (dequeFor)
	order []StationID // round-robin rotation, one entry per dst
	next  int         // round-robin cursor
	count int         // total queued MPDUs
}

// dstQueue is one destination's deque and whether the destination is in
// the rotation — the membership guard that keeps the rotation unique.
type dstQueue struct {
	seqspace.Ring[*MPDU]
	inOrder bool
}

// dequeFor returns dst's deque, growing the table to dst+1 and joining dst
// to the round-robin exactly once. Without the uniqueness guard,
// destinations whose queues drain and refill would accumulate duplicate
// rotation slots and starve always-backlogged peers. The pointer is good
// until the table next grows.
func (q *acQueue) dequeFor(dst StationID) *dstQueue {
	for int(dst) >= len(q.byDst) {
		q.byDst = append(q.byDst, dstQueue{})
	}
	d := &q.byDst[dst]
	if !d.inOrder {
		d.inOrder = true
		q.order = append(q.order, dst)
	}
	return d
}

func (q *acQueue) enqueue(m *MPDU) {
	q.dequeFor(m.Dst).PushBack(m)
	q.count++
}

// requeueFront puts a failed MPDU back at the head of its destination deque.
func (q *acQueue) requeueFront(m *MPDU) {
	q.dequeFor(m.Dst).Insert(0, m)
	q.count++
}

// nextDst returns the next destination with queued traffic, advancing the
// round-robin cursor, or ok=false when the queue is empty.
func (q *acQueue) nextDst() (StationID, bool) {
	for len(q.order) > 0 {
		if q.next >= len(q.order) {
			q.next = 0
		}
		dst := q.order[q.next]
		if q.byDst[dst].Len() > 0 {
			q.next++
			return dst, true
		}
		// Destination drained; drop it from the rotation.
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
		q.byDst[dst].inOrder = false
	}
	return 0, false
}

// popFor removes and returns up to max MPDUs destined for dst.
func (q *acQueue) popFor(dst StationID, max int) []*MPDU {
	if int(dst) >= len(q.byDst) {
		return nil
	}
	d := &q.byDst[dst]
	n := min(d.Len(), max)
	out := make([]*MPDU, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, d.PopFront())
	}
	q.count -= n
	return out
}

// depthFor returns the number of MPDUs queued for dst.
func (q *acQueue) depthFor(dst StationID) int {
	if int(dst) >= len(q.byDst) {
		return 0
	}
	return q.byDst[dst].Len()
}

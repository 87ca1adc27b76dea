package mac

import "repro/internal/seqspace"

// acQueue holds one deque per destination within one access category —
// aggregates pop a deque's head, retries go back on at its head — and
// serves destinations round-robin, mirroring the per-TID-per-STA queue
// structure of real AP drivers. Round-robin among stations is what gives
// CSMA its per-station (not per-packet) fairness.
type acQueue struct {
	byDst   map[StationID]*seqspace.Ring[*MPDU]
	order   []StationID        // round-robin rotation, one entry per dst
	inOrder map[StationID]bool // membership guard: rotation stays unique
	next    int                // round-robin cursor
	count   int                // total queued MPDUs
}

func newACQueue() *acQueue {
	return &acQueue{byDst: map[StationID]*seqspace.Ring[*MPDU]{}, inOrder: map[StationID]bool{}}
}

// dequeFor returns dst's deque, creating it and joining dst to the
// round-robin exactly once. Without the uniqueness guard, destinations
// whose queues drain and refill would accumulate duplicate rotation slots
// and starve always-backlogged peers.
func (q *acQueue) dequeFor(dst StationID) *seqspace.Ring[*MPDU] {
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
		if d := q.byDst[dst]; d != nil && d.Len() > 0 {
			q.next++
			return dst, true
		}
		// Destination drained; drop it from the rotation.
		q.order = append(q.order[:q.next], q.order[q.next+1:]...)
		delete(q.inOrder, dst)
	}
	return 0, false
}

// popFor removes and returns up to max MPDUs destined for dst.
func (q *acQueue) popFor(dst StationID, max int) []*MPDU {
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

// depthFor returns the number of MPDUs queued for dst.
func (q *acQueue) depthFor(dst StationID) int {
	if d := q.byDst[dst]; d != nil {
		return d.Len()
	}
	return 0
}

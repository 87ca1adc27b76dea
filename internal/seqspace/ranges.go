package seqspace

import "repro/internal/packet"

// Ranges is a set of bytes of one sequence space, held as disjoint
// [Left, Right) blocks ascending in Left, with touching blocks merged: a
// sender's SACK scoreboard, a receiver's out-of-order buffer, the data an
// AP has seen beyond a hole. The zero value is the empty set. These sets
// are a handful of blocks long and new data lands at or near the top, so
// every operation is a short linear walk, from the back where it can be.
//
// Blocks 2^31 or more apart (a mangled header got in) are not ordered with
// respect to each other; they stay where insertion left them and nothing
// else is affected.
type Ranges struct {
	b []packet.SACKBlock
}

// Len returns the number of blocks.
func (r *Ranges) Len() int { return len(r.b) }

// At returns the i-th block in ascending order.
func (r *Ranges) At(i int) packet.SACKBlock { return r.b[i] }

// Bytes returns the number of bytes held.
func (r *Ranges) Bytes() int {
	n := 0
	for _, b := range r.b {
		n += int(b.Right - b.Left)
	}
	return n
}

// Add inserts [left, right), merging it with every block it overlaps or
// touches, and returns how many bytes the set did not hold before. An empty
// or inverted range adds nothing.
func (r *Ranges) Add(left, right uint32) int {
	if !LT(left, right) {
		return 0
	}
	// [i, j) is the run of held blocks the new one merges with. It starts
	// at the insertion point, found from the back, or one before it when
	// that block reaches left.
	i := len(r.b)
	for i > 0 && LT(left, r.b[i-1].Left) {
		i--
	}
	if i > 0 && LEQ(left, r.b[i-1].Right) {
		i--
		left = r.b[i].Left
	}
	j, held := i, 0
	for ; j < len(r.b) && LEQ(r.b[j].Left, right); j++ {
		held += int(r.b[j].Right - r.b[j].Left)
		right = Max(right, r.b[j].Right)
	}
	if i == j {
		r.b = append(r.b, packet.SACKBlock{})
		copy(r.b[i+1:], r.b[i:])
	} else {
		r.b = append(r.b[:i+1], r.b[j:]...)
	}
	r.b[i] = packet.SACKBlock{Left: left, Right: right}
	return int(right-left) - held
}

// Contains reports whether one block holds all of [left, right).
func (r *Ranges) Contains(left, right uint32) bool {
	for _, b := range r.b {
		if LEQ(b.Left, left) && LEQ(right, b.Right) {
			return true
		}
	}
	return false
}

// TrimBelow discards every byte below seq (a cumulative acknowledgement
// passed it).
func (r *Ranges) TrimBelow(seq uint32) {
	out := r.b[:0]
	for _, b := range r.b {
		if LEQ(b.Right, seq) {
			continue
		}
		if LT(b.Left, seq) {
			b.Left = seq
		}
		out = append(out, b)
	}
	r.b = out
}

// Absorb advances edge — the point below which everything has arrived —
// over every block it now reaches, removes those blocks, and returns the
// new edge: filling a hole delivers the data that was waiting above it.
func (r *Ranges) Absorb(edge uint32) uint32 {
	k := 0
	for k < len(r.b) && LEQ(r.b[k].Left, edge) {
		edge = Max(edge, r.b[k].Right)
		k++
	}
	r.b = r.b[:copy(r.b, r.b[k:])]
	return edge
}

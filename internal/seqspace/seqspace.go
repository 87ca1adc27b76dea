// Package seqspace is the data plane's arithmetic on the 32-bit TCP
// sequence space, written once: the wrapping comparisons, and the three
// containers everything per-flow is kept in — Ring (a deque), Window (a
// deque ascending in sequence number: what is in flight, retired from the
// front by cumulative acknowledgement) and Ranges (disjoint byte ranges: a
// SACK scoreboard, an out-of-order buffer, a holes vector).
//
// Sequence order is only defined between numbers less than 2^31 apart.
// Every container here keeps working — no panic, no unbounded loop — when
// handed numbers further apart than that (a corrupted header), and says
// what it does with them.
package seqspace

// LT reports a < b in 32-bit sequence space.
func LT(a, b uint32) bool { return int32(a-b) < 0 }

// LEQ reports a <= b in sequence space.
func LEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// Max returns the later of a, b in sequence space.
func Max(a, b uint32) uint32 {
	if LT(a, b) {
		return b
	}
	return a
}

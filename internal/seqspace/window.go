package seqspace

// Entry is one element of a Window: a value filed under a sequence number.
// The key sits beside the value, so the ordering never has to ask T for it.
type Entry[T any] struct {
	Seq uint32
	V   T
}

// Window is a deque of entries strictly ascending in sequence number — the
// shape of everything a TCP path keeps about bytes in flight. Segments
// leave in order, so a new key almost always lands at the back;
// acknowledgements are cumulative, so keys are retired from the front. That
// makes a ring with one binary search both smaller and faster than a map:
// it holds what is in flight and nothing else, with no sweep to bound it.
// The zero value is an empty window.
//
// The order is total because a Window never holds two keys 2^31 or more
// apart: Put refuses the one key that would break that.
type Window[T any] struct {
	r Ring[Entry[T]]
}

// Len returns the number of entries held.
func (w *Window[T]) Len() int { return w.r.n }

// At returns the i-th entry in ascending order (0 = front). The pointer is
// valid until the next mutation; the caller must not change Seq.
func (w *Window[T]) At(i int) *Entry[T] { return w.r.At(i) }

// Front returns the lowest entry of a non-empty window.
func (w *Window[T]) Front() *Entry[T] { return w.r.At(0) }

// PopFront removes and returns the lowest entry.
func (w *Window[T]) PopFront() Entry[T] { return w.r.PopFront() }

// PopBack removes and returns the highest entry.
func (w *Window[T]) PopBack() Entry[T] { return w.r.PopBack() }

// Reset empties the window but keeps its backing array.
func (w *Window[T]) Reset() { w.r.Reset() }

// Drop empties the window and releases its backing array.
func (w *Window[T]) Drop() { w.r.Drop() }

// search returns the first index whose key is >= seq.
func (w *Window[T]) search(seq uint32) int {
	lo, hi := 0, w.r.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if LT(w.r.At(mid).Seq, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Put files a new entry under seq and returns its zero-valued slot for the
// caller to fill, or nil when nothing was inserted: seq is already held
// (the entry is left alone; a retransmission keeps its first record), or
// seq lies beyond the back and yet before the front — half the sequence
// space away from what is held, a mangled header — and has no place in the
// order.
func (w *Window[T]) Put(seq uint32) *T {
	n := w.r.n
	if n == 0 || LT(w.r.At(n-1).Seq, seq) {
		if n > 0 && LT(seq, w.r.At(0).Seq) {
			return nil
		}
		w.r.PushBack(Entry[T]{Seq: seq})
		return &w.r.At(n).V
	}
	i := w.search(seq)
	if i < n && w.r.At(i).Seq == seq {
		return nil
	}
	w.r.Insert(i, Entry[T]{Seq: seq})
	return &w.r.At(i).V
}

// Find returns the value filed under exactly seq, or nil.
func (w *Window[T]) Find(seq uint32) *T {
	if i := w.search(seq); i < w.r.n && w.r.At(i).Seq == seq {
		return &w.r.At(i).V
	}
	return nil
}

// Remove deletes the entry filed under exactly seq and reports whether
// there was one.
func (w *Window[T]) Remove(seq uint32) bool {
	i := w.search(seq)
	if i == w.r.n || w.r.At(i).Seq != seq {
		return false
	}
	w.r.Remove(i)
	return true
}

// PopThrough retires every entry at or below ack — what a cumulative
// acknowledgement covers — and returns the value that was filed under
// exactly ack, if there was one.
func (w *Window[T]) PopThrough(ack uint32) (at T, ok bool) {
	for w.r.n > 0 && LEQ(w.r.At(0).Seq, ack) {
		if e := w.r.PopFront(); e.Seq == ack {
			at, ok = e.V, true
		}
	}
	return at, ok
}

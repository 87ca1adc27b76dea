package seqspace

// Ring is a growable power-of-two circular buffer. The queues of the data
// plane are deques: entries land at (or near) the back while purges pop the
// front, so a ring recycles one backing array where a slice would either
// shift O(n) per pop or leak capacity off the front (`s = s[1:]`) and
// reallocate every time the window slides. Once a ring has grown to its
// working-set size, steady-state traffic allocates nothing. The zero value
// is an empty ring.
type Ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of elements held.
func (r *Ring[T]) Len() int { return r.n }

// At returns a pointer to the i-th element (0 = front). The pointer is
// valid until the next mutation.
func (r *Ring[T]) At(i int) *T {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *Ring[T]) grow() {
	newCap := len(r.buf) * 2
	if newCap < 8 {
		newCap = 8
	}
	nb := make([]T, newCap)
	for i := 0; i < r.n; i++ {
		nb[i] = *r.At(i)
	}
	r.buf = nb
	r.head = 0
}

// PushBack appends v at the back.
func (r *Ring[T]) PushBack(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PopFront removes and returns the front element. The vacated slot is
// zeroed so the ring never pins pointers the caller released.
func (r *Ring[T]) PopFront() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	if r.n == 0 {
		r.head = 0
	}
	return v
}

// PopBack removes and returns the back element.
func (r *Ring[T]) PopBack() T {
	var zero T
	i := (r.head + r.n - 1) & (len(r.buf) - 1)
	v := r.buf[i]
	r.buf[i] = zero
	r.n--
	return v
}

// Insert places v at index i (0..Len()), shifting whichever side is
// shorter; Insert(0, v) is a push at the front.
func (r *Ring[T]) Insert(i int, v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	if i <= r.n-i {
		r.head = (r.head - 1 + len(r.buf)) & (len(r.buf) - 1)
		r.n++
		for j := 0; j < i; j++ {
			*r.At(j) = *r.At(j + 1)
		}
	} else {
		r.n++
		for j := r.n - 1; j > i; j-- {
			*r.At(j) = *r.At(j - 1)
		}
	}
	*r.At(i) = v
}

// Remove deletes and returns the element at index i (0..Len()-1), closing
// the gap from whichever side is shorter.
func (r *Ring[T]) Remove(i int) T {
	v := *r.At(i)
	if i < r.n-1-i {
		for j := i; j > 0; j-- {
			*r.At(j) = *r.At(j - 1)
		}
		r.PopFront()
	} else {
		for j := i; j < r.n-1; j++ {
			*r.At(j) = *r.At(j + 1)
		}
		r.PopBack()
	}
	return v
}

// Reset empties the ring, zeroing held slots but keeping the backing
// array for reuse.
func (r *Ring[T]) Reset() {
	var zero T
	for i := 0; i < r.n; i++ {
		*r.At(i) = zero
	}
	r.head, r.n = 0, 0
}

// Drop empties the ring and releases the backing array (bypassed and
// detached flows must not pin their working-set capacity).
func (r *Ring[T]) Drop() { *r = Ring[T]{} }

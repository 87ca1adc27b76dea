package sim

import "fmt"

// Line is a FIFO of items that each wait the same fixed delay and then go
// to one handler: a wire's latency, a host stack's turnaround. Push draws
// (now+delay, seq) exactly as After does, and the clock never runs back, so
// a line is already in the queue's (at, seq) order and only its head needs
// a queue slot. A line holds at most one slot, as a Timer does. Delivering
// the head hands that slot to the next item, in place when the next item
// still precedes the root's children. The engine pops the same order it
// would if every item had its own slot.
type Line[T any] struct {
	slot  Timer // the head's queue slot; slot.fn delivers the head
	delay Time
	fn    func(T)
	ring  []lineItem[T] // a power of two long, or empty
	head  int
	n     int
}

type lineItem[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewLine returns an empty line on e whose items reach fn delay after their
// Push.
func NewLine[T any](e *Engine, delay Time, fn func(T)) *Line[T] {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	l := &Line[T]{delay: delay, fn: fn}
	l.slot = Timer{e: e, fn: l.deliver, idx: -1}
	return l
}

// Delay returns the fixed delay of the line.
func (l *Line[T]) Delay() Time { return l.delay }

// Push sends v down the line. It takes its place among same-instant events
// as an After(delay) called at this point would.
func (l *Line[T]) Push(v T) {
	e := l.slot.e
	if l.n == len(l.ring) {
		l.grow()
	}
	it := lineItem[T]{at: e.now + l.delay, seq: e.seq, v: v}
	e.seq++
	l.ring[(l.head+l.n)&(len(l.ring)-1)] = it
	l.n++
	if l.n == 1 {
		e.queue.push(event{at: it.at, seq: it.seq, t: &l.slot})
	} else {
		e.lined++
	}
}

// deliver is the head's event. Step calls it with the head's slot still at
// the root, and the queue is whole again before fn runs, so fn may push.
func (l *Line[T]) deliver(e *Engine) {
	v := l.ring[l.head].v
	l.ring[l.head] = lineItem[T]{}
	l.head = (l.head + 1) & (len(l.ring) - 1)
	l.n--
	if l.n > 0 {
		next := &l.ring[l.head]
		e.lined--
		e.queue.replaceTop(event{at: next.at, seq: next.seq, t: &l.slot})
	} else {
		e.queue.remove(0)
	}
	l.fn(v)
}

// grow doubles the ring, unwrapping it.
func (l *Line[T]) grow() {
	ring := make([]lineItem[T], max(8, 2*len(l.ring)))
	for i := 0; i < l.n; i++ {
		ring[i] = l.ring[(l.head+i)&(len(l.ring)-1)]
	}
	l.ring, l.head = ring, 0
}

// Package sim provides a deterministic discrete-event simulation engine.
//
// All simulators in this repository (the 802.11 MAC, the TCP endpoints, the
// scanning radio, the diurnal load models) are built on one shared clock and
// one event heap so that cross-layer interactions — e.g. a TCP ACK contending
// with data frames for the wireless medium — are ordered exactly once.
//
// Time is measured in integer microseconds from the start of the run. Events
// scheduled for the same instant fire in the order they were scheduled, which
// keeps runs reproducible for a fixed seed.
//
// The queue holds only events that will fire, by value. A scheduled event
// cannot be taken back, so nothing keeps a handle to one; the few things
// that are taken back (a retransmission timeout, a delayed ACK, a ticker)
// own a Timer, which occupies at most one queue slot and leaves it on Stop.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a simulation timestamp in microseconds.
type Time int64

// Common durations expressed in simulation Time units.
const (
	Microsecond Time = 1
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
	Minute      Time = 60 * Second
	Hour        Time = 60 * Minute
	Day         Time = 24 * Hour
)

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis returns t as floating-point milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", t.Millis())
	default:
		return fmt.Sprintf("%dµs", int64(t))
	}
}

// event is one queue slot. t is set when the slot belongs to a Timer, whose
// idx the queue keeps equal to the slot's position.
type event struct {
	at  Time
	seq uint64 // tie-break: FIFO among equal timestamps
	fn  func(*Engine)
	t   *Timer
}

func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// earlier is before as 0 or 1, computed without a branch.
func (a *event) earlier(b *event) int {
	return b2i(a.at < b.at) | b2i(a.at == b.at)&b2i(a.seq < b.seq)
}

func b2i(b bool) int {
	var x int
	if b {
		x = 1
	}
	return x
}

// eventHeap is a binary min-heap ordered by (at, seq). Sifting moves a hole
// rather than swapping: each displaced event is written once. Binary by
// measurement: a 4-ary layout was a fifth slower at 190 queued and at 5,000.
type eventHeap []event

// set stores ev in slot i and tells its Timer, if it has one, where it is.
func (h eventHeap) set(i int, ev event) {
	h[i] = ev
	if ev.t != nil {
		ev.t.idx = i
	}
}

// up places ev at slot i or above, whichever ancestor it does not precede.
func (h eventHeap) up(i int, ev event) {
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, ev)
}

// down places ev at slot i or below, under no child that precedes it.
//
// It works bottom up. The hole at i walks to a leaf along the earlier
// child, one comparison per level, and ev is sifted up from there. The
// events down is handed belong near the bottom: the old last event of a
// removal, or a timer re-armed later. Carrying ev down instead costs two
// comparisons per level. ev never rises above i, because the caller has
// made sure it does not precede i's parent. The choice of child is a coin
// toss that no branch predictor learns, so it is made without a branch.
func (h eventHeap) down(i int, ev event) {
	top, n := i, len(h)
	for c := 2*i + 1; c < n; c = 2*i + 1 {
		if c+1 < n {
			c += h[c+1].earlier(&h[c])
		}
		h.set(i, h[c])
		i = c
	}
	for i > top {
		p := (i - 1) / 2
		if !ev.before(&h[p]) {
			break
		}
		h.set(i, h[p])
		i = p
	}
	h.set(i, ev)
}

// fix places ev at slot i's position in the order, whichever way that is.
func (h eventHeap) fix(i int, ev event) {
	if i > 0 && ev.before(&h[(i-1)/2]) {
		h.up(i, ev)
	} else {
		h.down(i, ev)
	}
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, event{})
	h.up(len(*h)-1, ev)
}

// remove takes slot i out of the heap and returns what it held. The vacated
// last slot is zeroed so the backing array does not keep a closure alive.
func (h *eventHeap) remove(i int) event {
	old := *h
	ev, n := old[i], len(old)-1
	last := old[n]
	old[n] = event{}
	*h = old[:n]
	if i < n {
		old[:n].fix(i, last)
	}
	if ev.t != nil {
		ev.t.idx = -1
	}
	return ev
}

// Timer is a callback that can be armed, re-armed and stopped. It holds at
// most one slot of the engine's queue: Stop removes it and Reset on a pending
// timer moves it, so a timer that is re-armed on every packet costs the
// queue one entry, not one per re-arm.
type Timer struct {
	e   *Engine
	fn  func(*Engine)
	idx int // queue slot, -1 when not pending
}

// NewTimer returns a stopped timer that runs fn when it expires.
func (e *Engine) NewTimer(fn func(*Engine)) *Timer {
	return &Timer{e: e, fn: fn, idx: -1}
}

// Reset arms the timer to expire delay from now, replacing any pending
// expiry. It takes its place among same-instant events as an After called
// at this point would.
func (t *Timer) Reset(delay Time) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e := t.e
	ev := event{at: e.now + delay, seq: e.seq, fn: t.fn, t: t}
	e.seq++
	if t.idx >= 0 {
		e.queue.fix(t.idx, ev)
	} else {
		e.queue.push(ev)
	}
}

// Stop disarms the timer. Stopping a timer that is not pending is a no-op.
func (t *Timer) Stop() {
	if t.idx >= 0 {
		t.e.queue.remove(t.idx)
	}
}

// Pending reports whether the timer is armed and has not yet expired. It is
// false from inside the timer's own callback.
func (t *Timer) Pending() bool { return t.idx >= 0 }

// Engine is a single-threaded discrete-event scheduler with a deterministic
// random source. It is not safe for concurrent use; each simulation run owns
// one Engine.
type Engine struct {
	now   Time
	seq   uint64
	queue eventHeap
	rng   *rand.Rand
	fired uint64
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// NewEngineCompact is NewEngine over the one-word SplitMix64 source (see
// NewRNG): same engine, ~4.9 KB less resident state, a different (equally
// deterministic) draw stream. Fleet-scale processes holding one engine
// per network use this.
func NewEngineCompact(seed int64) *Engine {
	return &Engine{rng: NewRNG(seed)}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Queued returns the number of events waiting to fire.
func (e *Engine) Queued() int { return len(e.queue) }

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a logic error in a model.
func (e *Engine) Schedule(at Time, fn func(*Engine)) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	e.queue.push(event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// After queues fn to run delay from now.
func (e *Engine) After(delay Time, fn func(*Engine)) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.Schedule(e.now+delay, fn)
}

// Step executes the next pending event, advancing the clock. It returns false
// when the queue is empty.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.remove(0)
	e.now = ev.at
	e.fired++
	ev.fn(e)
	return true
}

// Run executes events until the queue drains.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock to
// deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Ticker invokes fn every period until the returned stop function is called
// or the engine drains. The first invocation is one period from now.
func (e *Engine) Ticker(period Time, fn func(*Engine)) (stop func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	stopped := false // set from inside fn, when the timer is not pending
	var t *Timer
	t = e.NewTimer(func(en *Engine) {
		fn(en)
		if !stopped {
			t.Reset(period)
		}
	})
	t.Reset(period)
	return func() {
		stopped = true
		t.Stop()
	}
}

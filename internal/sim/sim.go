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
package sim

import (
	"container/heap"
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

// Event is a scheduled callback. The callback receives the engine so it can
// schedule follow-on events.
type Event struct {
	at   Time
	seq  uint64 // tie-break: FIFO among equal timestamps
	fn   func(*Engine)
	dead bool
	idx  int // heap index, -1 when not queued
}

// At reports when the event fires.
func (e *Event) At() Time { return e.at }

// Cancel prevents a pending event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() { e.dead = true }

// Cancelled reports whether Cancel was called.
func (e *Event) Cancelled() bool { return e.dead }

type eventHeap []*Event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	e := x.(*Event)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event scheduler with a deterministic
// random source. It is not safe for concurrent use; each simulation run owns
// one Engine.
type Engine struct {
	now    Time
	seq    uint64
	queue  eventHeap
	rng    *rand.Rand
	fired  uint64
	halted bool
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

// Schedule queues fn to run at absolute time at. Scheduling in the past
// (before Now) panics: it always indicates a logic error in a model.
func (e *Engine) Schedule(at Time, fn func(*Engine)) *Event {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", at, e.now))
	}
	ev := &Event{at: at, seq: e.seq, fn: fn, idx: -1}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// After queues fn to run delay from now.
func (e *Engine) After(delay Time, fn func(*Engine)) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	return e.Schedule(e.now+delay, fn)
}

// Halt stops the run loop after the currently executing event returns.
func (e *Engine) Halt() { e.halted = true }

// Step executes the next pending event, advancing the clock. It returns false
// when the queue is empty.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn(e)
		return true
	}
	return false
}

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() {
	e.halted = false
	for !e.halted && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock to
// deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline Time) {
	e.halted = false
	for !e.halted {
		// Peek without popping.
		next := e.peek()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

func (e *Engine) peek() *Event {
	for len(e.queue) > 0 {
		if e.queue[0].dead {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0]
	}
	return nil
}

// Ticker invokes fn every period until the returned stop function is called
// or the engine drains. The first invocation is one period from now.
func (e *Engine) Ticker(period Time, fn func(*Engine)) (stop func()) {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	stopped := false
	var tick func(*Engine)
	var pending *Event
	tick = func(en *Engine) {
		if stopped {
			return
		}
		fn(en)
		if !stopped {
			pending = en.After(period, tick)
		}
	}
	pending = e.After(period, tick)
	return func() {
		stopped = true
		if pending != nil {
			pending.Cancel()
		}
	}
}

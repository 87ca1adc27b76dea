package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/codec"
)

// Typed events. A closure cannot be written down, so an engine whose
// queue holds one cannot be carried across a restart. A typed event is
// data instead: a kind and a small fixed payload, dispatched through the
// handler table the engine's owner registers once (Handle). An engine
// whose pending events are all typed exports as a State — its clock, its
// seq and fired counts, its SplitMix64 position and its queue as
// (at, seq, kind, payload) — and a fresh engine given the same handlers
// imports it and fires exactly what the original would have.
//
// Typed events share the clock and the seq counter with closure events,
// so the two kinds interleave in one (at, seq) order. They wait in a heap
// of their own: the control plane keeps a handful pending, the data plane
// none, and the closure queue's slot stays the 32 bytes its hot loop was
// measured at.

// Kind names a typed event: an index into the owner's handler table.
type Kind uint8

// Payload is a typed event's argument words; what they mean is the
// handler's business.
type Payload [3]int32

// Handler runs one typed event.
type Handler func(p Payload)

// Event is one pending typed event, as Export lists it.
type Event struct {
	At   Time
	Seq  uint64
	Kind Kind
	Arg  Payload
}

func (a *Event) before(at Time, seq uint64) bool {
	return a.At < at || (a.At == at && a.Seq < seq)
}

// typedHeap is a binary min-heap of typed events ordered by (At, Seq).
type typedHeap []Event

func (h *typedHeap) push(ev Event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !ev.before(q[p].At, q[p].Seq) {
			break
		}
		q[i] = q[p]
		i = p
	}
	q[i] = ev
}

func (h *typedHeap) pop() Event {
	q := *h
	top, n := q[0], len(q)-1
	last := q[n]
	q = q[:n]
	*h = q
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(q[c].At, q[c].Seq) {
			c++
		}
		if !q[c].before(last.At, last.Seq) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	return top
}

// Handle registers the engine's handler table: a typed event of kind k
// runs table[k]. It may be called once per engine.
func (e *Engine) Handle(table []Handler) {
	if e.handlers != nil {
		panic("sim: handler table registered twice")
	}
	e.handlers = table
}

// Post queues a typed event delay from now. It takes its place among
// same-instant events as an After called at this point would.
func (e *Engine) Post(delay Time, k Kind, p Payload) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	if int(k) >= len(e.handlers) || e.handlers[k] == nil {
		panic(fmt.Sprintf("sim: no handler for event kind %d", k))
	}
	e.typed.push(Event{At: e.now + delay, Seq: e.seq, Kind: k, Arg: p})
	e.seq++
}

// State is an engine's whole position, as Export writes it and Import
// reads it: everything a continuation depends on.
type State struct {
	Now   Time
	Seq   uint64
	Fired uint64
	RNG   uint64  // the SplitMix64 source's State
	Queue []Event // pending typed events in (At, Seq) order
}

// Append appends st in the restart-state encoding (package codec): the
// clock, seq, fired count and rng position, then the queue's length and
// each event's at, seq, kind and payload words.
func (st *State) Append(b []byte) []byte {
	b = codec.AppendInt(b, int64(st.Now))
	b = codec.AppendUint(b, st.Seq)
	b = codec.AppendUint(b, st.Fired)
	b = codec.AppendUint(b, st.RNG)
	b = codec.AppendUint(b, uint64(len(st.Queue)))
	for i := range st.Queue {
		ev := &st.Queue[i]
		b = codec.AppendInt(b, int64(ev.At))
		b = codec.AppendUint(b, ev.Seq)
		b = codec.AppendUint(b, uint64(ev.Kind))
		for _, w := range ev.Arg {
			b = codec.AppendInt(b, int64(w))
		}
	}
	return b
}

// ReadState reads a State that Append wrote; a malformed one sets r's
// error.
func ReadState(r *codec.Reader) State {
	st := State{Now: Time(r.Int()), Seq: r.Uint(), Fired: r.Uint(), RNG: r.Uint()}
	if n := r.Len(6); n > 0 { // an event takes at least six bytes
		st.Queue = make([]Event, n)
	}
	for i := range st.Queue {
		ev := &st.Queue[i]
		ev.At, ev.Seq = Time(r.Int()), r.Uint()
		if k := r.Uint(); k > math.MaxUint8 {
			r.Failf("sim: event kind %d", k)
		} else {
			ev.Kind = Kind(k)
		}
		for j := range ev.Arg {
			w := r.Int()
			if w != int64(int32(w)) {
				r.Failf("sim: payload word %d", w)
			}
			ev.Arg[j] = int32(w)
		}
	}
	return st
}

// Export writes the engine's position. It fails when a closure event, a
// Timer or a Line item is pending (none of them can be written down) and
// on an engine over the standard library's source (NewEngine), whose
// position is not one word.
func (e *Engine) Export() (State, error) {
	if n := len(e.queue) + e.lined; n > 0 {
		return State{}, fmt.Errorf("sim: cannot export an engine with %d closure events pending", n)
	}
	if e.src == nil {
		return State{}, errors.New("sim: cannot export an engine over the standard library source")
	}
	q := append([]Event(nil), e.typed...)
	slices.SortFunc(q, func(a, b Event) int {
		if a.before(b.At, b.Seq) {
			return -1
		}
		return 1
	})
	return State{Now: e.now, Seq: e.seq, Fired: e.fired, RNG: e.src.State, Queue: q}, nil
}

// Import puts a fresh engine (nothing scheduled, nothing fired) where st
// says. Its handler table must already be registered: every queued kind
// needs a handler.
func (e *Engine) Import(st State) error {
	if e.now != 0 || e.seq != 0 || e.fired != 0 || e.Queued() != 0 {
		return errors.New("sim: import into an engine that has run")
	}
	if e.src == nil {
		return errors.New("sim: cannot import into an engine over the standard library source")
	}
	for _, ev := range st.Queue {
		if int(ev.Kind) >= len(e.handlers) || e.handlers[ev.Kind] == nil {
			return fmt.Errorf("sim: no handler for imported event kind %d", ev.Kind)
		}
		if ev.At < st.Now || ev.Seq >= st.Seq {
			return fmt.Errorf("sim: imported event (%v, %d) outside the engine's clock %v and seq %d", ev.At, ev.Seq, st.Now, st.Seq)
		}
	}
	e.now, e.seq, e.fired, e.src.State = st.Now, st.Seq, st.Fired, st.RNG
	for _, ev := range st.Queue {
		e.typed.push(ev)
	}
	return nil
}

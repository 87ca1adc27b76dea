package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/codec"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(30, func(*Engine) { order = append(order, 3) })
	e.Schedule(10, func(*Engine) { order = append(order, 1) })
	e.Schedule(20, func(*Engine) { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("wrong order: %v", order)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %v, want 30", e.Now())
	}
}

func TestFIFOAmongEqualTimestamps(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func(*Engine) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	tm := e.NewTimer(func(*Engine) { fired++ })
	if tm.Pending() {
		t.Fatal("new timer is pending")
	}
	tm.Reset(10)
	if !tm.Pending() {
		t.Fatal("Pending() = false after Reset")
	}
	tm.Stop()
	tm.Stop()
	if tm.Pending() {
		t.Fatal("Pending() = true after Stop")
	}
	e.Run()
	if fired != 0 || e.Fired() != 0 {
		t.Fatalf("stopped timer fired: %d callbacks, Fired() = %d", fired, e.Fired())
	}
	tm.Reset(10)
	tm.Reset(30) // moves the one slot, does not add a second
	e.Run()
	if fired != 1 || e.Now() != 30 {
		t.Fatalf("re-armed timer fired %d times, clock %v; want once at 30µs", fired, e.Now())
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(10, func(*Engine) {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(5, func(*Engine) {})
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func(*Engine) { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want events at 10,20 only", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("clock = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("remaining events did not fire: %v", fired)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var chain func(*Engine)
	chain = func(en *Engine) {
		count++
		if count < 5 {
			en.After(10, chain)
		}
	}
	e.After(10, chain)
	e.Run()
	if count != 5 {
		t.Fatalf("chain fired %d times, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("clock = %v, want 50", e.Now())
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var stop func()
	stop = e.Ticker(10, func(*Engine) {
		count++
		if count == 3 {
			stop()
		}
	})
	e.RunUntil(1000)
	if count != 3 {
		t.Fatalf("ticker fired %d times after stop at 3", count)
	}
}

// A ticker stopped from inside its own tick is not pending at that moment,
// so the stop has to outlive the callback: no further tick, nothing queued.
func TestTickerStopFromInsideTick(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var stop func()
	stop = e.Ticker(10, func(*Engine) {
		count++
		stop()
	})
	e.Run()
	if count != 1 || e.Now() != 10 || len(e.queue) != 0 {
		t.Fatalf("count=%d now=%v queued=%d, want one tick at 10µs and an empty queue", count, e.Now(), len(e.queue))
	}
}

// A stopped ticker leaves nothing queued: Run returns, at the last event
// that was not the ticker's.
func TestTickerStopThenDrain(t *testing.T) {
	e := NewEngine(1)
	count := 0
	stop := e.Ticker(10, func(*Engine) { count++ })
	e.Schedule(35, func(*Engine) { stop() })
	e.Schedule(50, func(*Engine) {})
	e.Run()
	if count != 3 || e.Now() != 50 || e.Fired() != 5 {
		t.Fatalf("count=%d now=%v fired=%d, want 3 ticks, 50µs, 5 events", count, e.Now(), e.Fired())
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := NewEngine(42), NewEngine(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5µs",
		3 * Millisecond: "3.000ms",
		2 * Second:      "2.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
}

// Property: for any sequence of non-negative delays, events fire in
// non-decreasing time order and the clock never reads less than it did —
// through Run, and through RunUntil to an arbitrary deadline followed by
// Step (the order in which a clock that RunUntil advanced past a still-queued
// event would run backwards).
func TestQuickMonotonicClock(t *testing.T) {
	f := func(delays []uint16, deadline uint16, run bool) bool {
		e := NewEngine(7)
		var last Time = -1
		ok := true
		see := func() {
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		}
		for _, d := range delays {
			e.Schedule(Time(d), func(*Engine) { see() })
		}
		if run {
			e.Run()
			return ok && len(e.queue) == 0
		}
		e.RunUntil(Time(deadline))
		see()
		if len(e.queue) > 0 && e.queue[0].at <= e.Now() {
			return false // RunUntil left a due event behind
		}
		for e.Step() {
			see()
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAfterNegativePanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func(*Engine) {})
}

// ---- the queue against the one it replaced ----

// refEvent, refHeap and refEngine are the container/heap queue this package
// had before events became values: an event is a pointer, Cancel marks it
// dead, and the corpse stays queued until it surfaces. Kept as the oracle
// for TestQueueMatchesReference and FuzzQueue.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func(*refEngine)
	dead bool
	idx  int
}

func (e *refEvent) Cancel() { e.dead = true }

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.idx = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	e.idx = -1
	*h = old[:n-1]
	return e
}

type refEngine struct {
	now   Time
	seq   uint64
	queue refHeap
	fired uint64
}

func (e *refEngine) Schedule(at Time, fn func(*refEngine)) *refEvent {
	if at < e.now {
		panic("ref: schedule in the past")
	}
	ev := &refEvent{at: at, seq: e.seq, fn: fn, idx: -1}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) After(delay Time, fn func(*refEngine)) *refEvent {
	return e.Schedule(e.now+delay, fn)
}

func (e *refEngine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*refEvent)
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

func (e *refEngine) RunUntil(deadline Time) {
	for {
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

func (e *refEngine) peek() *refEvent {
	for len(e.queue) > 0 {
		if e.queue[0].dead {
			heap.Pop(&e.queue)
			continue
		}
		return e.queue[0]
	}
	return nil
}

// queue is what the comparison drives: either engine plus refTimers timers
// and refLines lines addressed by number.
type queue interface {
	Now() Time
	Fired() uint64
	nextSeq() uint64 // the seq the next Schedule, Reset or Push will draw
	live() int       // events queued that will fire
	Schedule(at Time, fn func())
	Post(delay Time, fn func()) // a typed event whose handler runs fn
	Push(l int, fn func())
	Reset(j int, delay Time)
	Stop(j int)
	Pending(j int) bool
	Step() bool
	RunUntil(Time)
}

const refTimers, refLines = 4, 2

// lineDelays are the fixed delays of the lines, both among those plain
// events and timers draw.
var lineDelays = [refLines]Time{0, 10}

type newQueue struct {
	*Engine
	timers [refTimers]*Timer
	lines  [refLines]*Line[func()]
	posted []func() // by typed event payload
}

func newNewQueue(fire func(j int)) *newQueue {
	q := &newQueue{Engine: NewEngine(1)}
	q.Handle([]Handler{func(p Payload) { q.posted[p[0]]() }})
	for j := range q.timers {
		j := j
		q.timers[j] = q.NewTimer(func(*Engine) { fire(j) })
	}
	for l := range q.lines {
		q.lines[l] = NewLine(q.Engine, lineDelays[l], func(fn func()) { fn() })
	}
	return q
}

func (q *newQueue) nextSeq() uint64             { return q.seq }
func (q *newQueue) live() int                   { return q.Queued() }
func (q *newQueue) Schedule(at Time, fn func()) { q.Engine.Schedule(at, func(*Engine) { fn() }) }
func (q *newQueue) Push(l int, fn func())       { q.lines[l].Push(fn) }
func (q *newQueue) Post(delay Time, fn func()) {
	q.Engine.Post(delay, 0, Payload{int32(len(q.posted))})
	q.posted = append(q.posted, fn)
}
func (q *newQueue) Reset(j int, delay Time) { q.timers[j].Reset(delay) }
func (q *newQueue) Stop(j int)              { q.timers[j].Stop() }
func (q *newQueue) Pending(j int) bool      { return q.timers[j].Pending() }

// refQueue drives its timers the way tcpstack and Ticker drove the old
// queue: cancel the handle and schedule afresh; the callback clears the
// handle before it does anything else.
type refQueue struct {
	*refEngine
	handles [refTimers]*refEvent
	fire    func(j int)
}

func (q *refQueue) Now() Time       { return q.now }
func (q *refQueue) Fired() uint64   { return q.fired }
func (q *refQueue) nextSeq() uint64 { return q.seq }
func (q *refQueue) live() int {
	n := 0
	for _, ev := range q.queue {
		if !ev.dead {
			n++
		}
	}
	return n
}
func (q *refQueue) Schedule(at Time, fn func()) {
	q.refEngine.Schedule(at, func(*refEngine) { fn() })
}

// Post is what a typed event stands for: an After with its callback.
func (q *refQueue) Post(delay Time, fn func()) {
	q.After(delay, func(*refEngine) { fn() })
}

// Push is what a line stands for: an After of the line's delay.
func (q *refQueue) Push(l int, fn func()) {
	q.After(lineDelays[l], func(*refEngine) { fn() })
}
func (q *refQueue) Reset(j int, delay Time) {
	q.Stop(j)
	q.handles[j] = q.After(delay, func(*refEngine) {
		q.handles[j] = nil
		q.fire(j)
	})
}
func (q *refQueue) Stop(j int) {
	if q.handles[j] != nil {
		q.handles[j].Cancel()
		q.handles[j] = nil
	}
}
func (q *refQueue) Pending(j int) bool { return q.handles[j] != nil }

// firing is one executed callback: when, the seq its arming drew, which
// (plain events and line items count up from 0 in arming order, timer j is
// -1-j), and
// which timers were pending as it began — right after its pop, so Pending is
// compared after every pop, not only after every operation.
type firing struct {
	at      Time
	seq     uint64
	id      int
	pending uint8
}

// driver applies one operation string to one queue and logs what fires.
// Every arming carries an action byte, decoded by inside, that the callback
// performs when it runs, so the queue is also exercised re-entrantly.
type driver struct {
	q      queue
	log    []firing
	ids    int
	lastAt Time // of the most recent arming
	act    [refTimers]byte
	armSeq [refTimers]uint64
	due    [refTimers]Time
}

var queueDelays = [...]Time{0, 0, 1, 1, 2, 3, 5, 10, 10, 40, 200, 200, 1000, 200 * Millisecond, 1 << 40}

// event returns the callback of a plain event or line item armed now for
// instant at, which logs itself under the next id and then performs act.
func (d *driver) event(at Time, act byte) func() {
	id, seq := d.ids, d.q.nextSeq()
	d.ids++
	d.lastAt = at
	return func() {
		d.log = append(d.log, firing{d.q.Now(), seq, id, d.pendingMask()})
		d.inside(act, -1)
	}
}

func (d *driver) schedule(at Time, act byte) { d.q.Schedule(at, d.event(at, act)) }

func (d *driver) post(delay Time, act byte) { d.q.Post(delay, d.event(d.q.Now()+delay, act)) }

func (d *driver) push(l int, act byte) { d.q.Push(l, d.event(d.q.Now()+lineDelays[l], act)) }

func (d *driver) reset(j int, delay Time, act byte) {
	d.act[j], d.armSeq[j], d.due[j] = act, d.q.nextSeq(), d.q.Now()+delay
	d.lastAt = d.due[j]
	d.q.Reset(j, delay)
}

func (d *driver) fire(j int) {
	d.log = append(d.log, firing{d.q.Now(), d.armSeq[j], -1 - j, d.pendingMask()})
	act := d.act[j]
	d.act[j] = 0 // a timer that re-arms itself does so once
	d.inside(act, j)
}

func (d *driver) pendingMask() uint8 {
	var m uint8
	for j := 0; j < refTimers; j++ {
		if d.q.Pending(j) {
			m |= 1 << j
		}
	}
	return m
}

// inside is what a callback does while it is the firing event; self is the
// timer it belongs to, or -1.
func (d *driver) inside(act byte, self int) {
	arg := int(act >> 3)
	j, delay := arg%refTimers, queueDelays[arg%len(queueDelays)]
	switch act % 8 {
	case 1: // onto a line, the one being delivered among them
		d.push(arg%refLines, 0)
	case 2: // a plain event or, by arg's parity, a typed one
		if arg%2 == 1 {
			d.post(delay, 0)
		} else {
			d.schedule(d.q.Now()+delay, 0)
		}
	case 3:
		d.reset(j, delay, 0)
	case 4:
		d.q.Stop(j)
	case 5: // re-arm itself
		if self >= 0 {
			j = self
		}
		d.reset(j, delay, 0)
	case 6: // stop every other timer due at this very instant
		for k := 0; k < refTimers; k++ {
			if k != self && d.q.Pending(k) && d.due[k] == d.q.Now() {
				d.q.Stop(k)
			}
		}
	case 7:
		d.q.Stop(j)
		d.reset(j, delay, 0)
		d.schedule(d.q.Now()+delay, 0)
	}
}

// op applies one three-byte operation from outside any callback.
func (d *driver) op(k, a, b byte) {
	j, delay := int(a)%refTimers, queueDelays[int(a)/refTimers%len(queueDelays)]
	switch k % 13 {
	case 0:
		d.schedule(d.q.Now()+delay, b)
	case 1: // a burst, so that pops walk a heap several levels deep
		for i := 0; i <= int(a%32); i++ {
			d.schedule(d.q.Now()+queueDelays[(int(a)+i)%len(queueDelays)], b)
		}
	case 2: // at the same instant as the last arming, if that is still ahead
		d.schedule(max(d.lastAt, d.q.Now()), b)
	case 3, 4:
		d.reset(j, delay, b)
	case 5: // to the same instant as the last arming: equal at, later seq
		d.reset(j, max(d.lastAt, d.q.Now())-d.q.Now(), b)
	case 6:
		d.q.Stop(j)
		if b%2 == 1 {
			d.q.Stop(j)
		}
	case 7:
		d.q.Step()
	case 8:
		for i := 0; i < int(a%4); i++ {
			d.q.Step()
		}
	case 9:
		d.q.RunUntil(d.q.Now() + delay)
	case 10:
		d.push(int(a)%refLines, b)
	case 11: // a burst onto one line, or alternating between the two
		l, alt := int(a)%refLines, int(a>>1)&1
		for i := 0; i <= int(a>>2)%16; i++ {
			d.push((l+alt*i)%refLines, b)
		}
	case 12:
		d.post(delay, b)
	}
}

// checkQueue asserts the structure the queue promises: heap order, every
// timer's idx naming its own slot or -1, no slot without a callback, a slot
// for each line exactly while it holds items, at its head's (at, seq), and
// every other item counted as lined.
func checkQueue(t *testing.T, q *newQueue) {
	t.Helper()
	h := q.queue
	for i := range h {
		if i > 0 && h[i].before(&h[(i-1)/2]) {
			t.Fatalf("heap order broken at slot %d", i)
		}
		if h[i].fn == nil && (h[i].t == nil || h[i].t.fn == nil) {
			t.Fatalf("slot %d holds no callback", i)
		}
		if h[i].t != nil && h[i].t.idx != i {
			t.Fatalf("slot %d belongs to a timer whose idx is %d", i, h[i].t.idx)
		}
	}
	for j, tm := range q.timers {
		if tm.idx != -1 && (tm.idx >= len(h) || h[tm.idx].t != tm) {
			t.Fatalf("timer %d: idx %d does not name its slot (queue holds %d)", j, tm.idx, len(h))
		}
	}
	if spare := h[len(h):cap(h)]; len(spare) > 0 && !isZero(spare[0]) {
		t.Fatal("vacated slot not zeroed")
	}
	lined := 0
	for l, ln := range q.lines {
		if (ln.slot.idx >= 0) != (ln.n > 0) {
			t.Fatalf("line %d holds %d items and slot %d", l, ln.n, ln.slot.idx)
		}
		if ln.n == 0 {
			continue
		}
		lined += ln.n - 1
		if head, ev := ln.ring[ln.head], h[ln.slot.idx]; ev.fn != nil || ev.at != head.at || ev.seq != head.seq {
			t.Fatalf("line %d: slot at %v seq %d, head at %v seq %d", l, ev.at, ev.seq, head.at, head.seq)
		}
		for i := ln.n; i < len(ln.ring); i++ {
			if it := ln.ring[(ln.head+i)%len(ln.ring)]; it.at != 0 || it.seq != 0 || it.v != nil {
				t.Fatalf("line %d: vacated ring slot not zeroed", l)
			}
		}
	}
	if lined != q.lined {
		t.Fatalf("lines hold %d items behind their heads, engine counts %d", lined, q.lined)
	}
}

func isZero(ev event) bool { return ev.at == 0 && ev.seq == 0 && ev.fn == nil && ev.t == nil }

// runQueueOps feeds ops, three bytes each, to both queues and compares them
// after every one.
func runQueueOps(t *testing.T, ops []byte) {
	t.Helper()
	var got, want driver
	nq := newNewQueue(got.fire)
	got.q = nq
	want.q = &refQueue{refEngine: &refEngine{}, fire: want.fire}
	seen := 0
	for n := 0; len(ops) >= 3; n, ops = n+1, ops[3:] {
		got.op(ops[0], ops[1], ops[2])
		want.op(ops[0], ops[1], ops[2])
		checkQueue(t, nq)
		if got.q.Now() != want.q.Now() || got.q.Fired() != want.q.Fired() || got.q.nextSeq() != want.q.nextSeq() {
			t.Fatalf("op %d %v: now %v fired %d seq %d, reference %v %d %d", n, ops[:3],
				got.q.Now(), got.q.Fired(), got.q.nextSeq(), want.q.Now(), want.q.Fired(), want.q.nextSeq())
		}
		if got.q.live() != want.q.live() {
			t.Fatalf("op %d %v: queue holds %d, reference has %d live events", n, ops[:3], got.q.live(), want.q.live())
		}
		for j := 0; j < refTimers; j++ {
			if got.q.Pending(j) != want.q.Pending(j) {
				t.Fatalf("op %d %v: timer %d pending = %v, reference %v", n, ops[:3], j, got.q.Pending(j), want.q.Pending(j))
			}
		}
		if len(got.log) != len(want.log) {
			t.Fatalf("op %d %v: %d firings, reference %d", n, ops[:3], len(got.log), len(want.log))
		}
		for ; seen < len(got.log); seen++ {
			if got.log[seen] != want.log[seen] {
				t.Fatalf("op %d %v: firing %d = %+v, reference %+v", n, ops[:3], seen, got.log[seen], want.log[seen])
			}
		}
	}
}

// TestQueueMatchesReference: random operation strings — Schedule at now, at
// equal timestamps and far out; Post typed events; Push onto two lines of different delays,
// one item or a burst; Reset on stopped and pending timers to earlier, later
// and equal instants; Stop pending, stopped and twice; all of those again
// from inside firing callbacks and line deliveries; bursts that deepen the
// heap; Step and RunUntil — fire the same (at, seq, id) sequence on the
// value-event queue, whose pop works bottom up, whose lines hold one slot
// each and whose typed events wait in a heap of their own, as on the
// pointer queue with its dead flag, where a push or a post is an After, with the same timers pending after every pop and the same clock,
// Fired() and Queued() after every operation.
func TestQueueMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 600; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3*(50+rng.Intn(400)))
		rng.Read(ops)
		runQueueOps(t, ops)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// The cases the random strings reach only by chance, spelled out.
func TestQueueDirectedCases(t *testing.T) {
	const selfRearm0, stopPeers, stopRearmAdd = 5, 6, 7 | 3<<3
	const push0, push1, reset0In10 = 1, 1 | 1<<3, 3 | 8<<3
	for name, ops := range map[string][]byte{
		// items on both lines and a plain event, all due at 10µs
		"two lines, two delays": {10, 1, 0, 10, 0, 0, 10, 1, 0, 2, 0, 0, 10, 0, 0, 9, 4 * 9, 0},
		// each line's items push onto that line from inside their delivery
		"line pushes from its delivery": {10, 0, push0, 10, 0, push0, 10, 1, push1, 10, 1, push1, 9, 4 * 9, 0},
		// a lone item refills its own line at the instant it empties it, behind
		// a plain event that was already due then
		"line empties and refills": {10, 0, push0, 2, 0, 0, 7, 0, 0, 7, 0, 0, 7, 0, 0, 10, 0, 0, 8, 3, 0},
		// timers reset to a line's instant, stopped there and re-armed from
		// inside a delivery, around a burst of items due at that instant
		"timers at a line's instants": {10, 1, 0, 5, 0, 0, 11, 1 | 3<<2, stopPeers, 5, 1, 0, 5, 2, 0, 6, 2, 0, 10, 1, reset0In10, 9, 4 * 9, 0},
		// timers 0..3 all due at the same instant; the first to fire stops the rest
		"timer stops peers due now": {3, 0 + 4*7, stopPeers, 5, 1, 0, 5, 2, 0, 5, 3, stopPeers, 9, 4 * 9, 0},
		// a timer re-arming itself with zero delay from its own callback
		"timer re-arms itself": {3, 2, selfRearm0, 7, 0, 0, 7, 0, 0, 7, 0, 0},
		// Reset on a pending timer: later, then earlier, then the same instant
		"reset moves one slot": {0, 4 * 9, 0, 3, 4 * 7, 0, 3, 4 * 10, 0, 3, 4 * 2, 0, 5, 0, 0, 9, 4 * 12, 0},
		// Reset of a pending timer to the instant it already has goes behind
		// an event scheduled for that instant in between
		"reset draws a fresh seq": {3, 4 * 7, 0, 2, 0, 0, 5, 0, 0, 9, 4 * 9, 0},
		// a plain event stops, re-arms and schedules from inside its callback
		"event re-arms a timer": {3, 3 + 4*7, 0, 0, 4 * 5, stopRearmAdd, 9, 4 * 11, 0},
		// typed events, plain events and a timer all due at 10µs fire in
		// arming order
		"typed among plain at one instant": {0, 4 * 7, 0, 12, 4 * 7, 0, 3, 4 * 7, 0, 12, 4*7 + 1, 0, 2, 0, 0, 9, 4 * 9, 0},
		// Stop of the heap's last slot, its root, and an already stopped timer
		"stop root and last": {3, 0 + 4*2, 0, 3, 1 + 4*7, 0, 6, 1, 1, 6, 0, 0, 6, 0, 1, 7, 0, 0},
	} {
		t.Run(name, func(t *testing.T) { runQueueOps(t, ops) })
	}
}

// FuzzQueue feeds arbitrary operation strings through the comparison of
// TestQueueMatchesReference.
func FuzzQueue(f *testing.F) {
	f.Add([]byte{3, 28, 6, 5, 1, 0, 5, 2, 0, 5, 3, 6, 9, 36, 0})
	f.Add([]byte{0, 0, 2, 0, 4, 3, 3, 1, 5, 7, 0, 0, 7, 0, 0, 9, 40, 0})
	f.Add([]byte{3, 0, 63, 3, 1, 63, 2, 0, 23, 6, 0, 1, 8, 3, 0, 9, 52, 0})
	f.Add([]byte{10, 0, 1, 11, 7, 9, 5, 0, 0, 10, 1, 6, 8, 3, 0, 9, 36, 0})
	f.Add([]byte{12, 4, 2 | 1<<3, 12, 0, 0, 0, 4, 2 | 3<<3, 3, 0, 0, 8, 3, 0, 9, 36, 0}) // typed events, posted from outside and inside
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 3*2000 {
			return
		}
		runQueueOps(t, ops)
	})
}

// The layer metric trace.sim.schedule_fire_allocs, as a test: once the queue
// has grown to its working depth, arming, moving, stopping and firing touch
// no allocator.
func TestScheduleFireZeroAllocs(t *testing.T) {
	e := NewEngine(1)
	fn := func(*Engine) {}
	for i := 0; i < 64; i++ {
		e.Schedule(Time(i), fn)
	}
	ln := NewLine(e, 3, func(int) {})
	for i := 0; i < 64; i++ {
		ln.Push(i)
	}
	e.Run()
	tm := e.NewTimer(fn)
	for name, f := range map[string]func(){
		"Schedule+Step":      func() { e.After(1, fn); e.Step() },
		"Push+Step":          func() { ln.Push(1); e.Step() },
		"Reset stopped+Stop": func() { tm.Reset(5); tm.Stop() },
		"Reset pending":      func() { tm.Reset(5); tm.Reset(9); tm.Reset(2) },
		"Reset+Step":         func() { tm.Reset(1); e.Step() },
	} {
		if n := testing.AllocsPerRun(100, f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
}

// A Line's items count as events waiting to fire until they are delivered,
// and each delivery as one event fired, in (at, seq) order with the rest.
func TestLineQueuedAndFired(t *testing.T) {
	e := NewEngine(1)
	var got []int
	ln := NewLine(e, 5, func(v int) { got = append(got, v) })
	for i := 0; i < 3; i++ {
		ln.Push(i)
	}
	e.After(5, func(*Engine) { got = append(got, -1) })
	if e.Queued() != 4 {
		t.Fatalf("Queued() = %d with three items lined and one event, want 4", e.Queued())
	}
	e.Step()
	if e.Queued() != 3 || e.Fired() != 1 {
		t.Fatalf("after one step: Queued() = %d, Fired() = %d; want 3, 1", e.Queued(), e.Fired())
	}
	e.Run()
	if e.Queued() != 0 || e.Fired() != 4 || e.Now() != 5 || !slices.Equal(got, []int{0, 1, 2, -1}) {
		t.Fatalf("Queued() = %d, Fired() = %d, now %v, order %v; want 0, 4, 5µs, [0 1 2 -1]",
			e.Queued(), e.Fired(), e.Now(), got)
	}
}

// A fired or stopped event's closure must not stay reachable from the
// queue's backing array: every slot beyond len is zero.
func TestQueueReleasesClosures(t *testing.T) {
	e := NewEngine(1)
	var timers []*Timer
	for i := 0; i < 20; i++ {
		p := new(int)
		e.Schedule(Time(i), func(*Engine) { *p++ })
		tm := e.NewTimer(func(*Engine) { *p++ })
		tm.Reset(Time(2 * i))
		timers = append(timers, tm)
	}
	held := func() (n int) {
		for _, ev := range e.queue[:cap(e.queue)] {
			if !isZero(ev) {
				n++
			}
		}
		return n
	}
	for i := 0; i < 7; i++ {
		e.Step()
	}
	timers[19].Stop()
	timers[10].Stop()
	timers[15].Reset(3)
	if held() != len(e.queue) {
		t.Fatalf("%d slots hold an event, queue holds %d", held(), len(e.queue))
	}
	e.Run()
	if held() != 0 {
		t.Fatalf("%d slots still hold an event after the queue drained", held())
	}
}

// TestExportImportRoundTrip: an engine whose pending events are all typed,
// exported at a random point of a random run, encoded and decoded, and
// imported into a fresh engine with the same handlers, fires the same (at, kind, payload)
// sequence from there on, and after every step both engines export the same
// State: clock, seq, Fired, rng position and every pending (at, seq, kind,
// payload).
func TestExportImportRoundTrip(t *testing.T) {
	delays := [...]Time{0, 0, 1, 5, 10, 10, 200, Second}
	build := func(log *[]Event) *Engine {
		e := NewEngineCompact(7)
		table := make([]Handler, 3)
		for k := range table {
			k := Kind(k)
			table[k] = func(p Payload) {
				*log = append(*log, Event{At: e.Now(), Kind: k, Arg: p})
				r := e.Rand().Int63()
				for i := int64(0); i < r%3; i++ {
					e.Post(delays[(r>>8+i)%int64(len(delays))], Kind((r>>4+i)%3), Payload{int32(r >> 16), p[1] + 1, int32(i)})
				}
			}
		}
		e.Handle(table)
		return e
	}
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var logA, logB []Event
		a := build(&logA)
		for i := 0; i < 1+rng.Intn(12); i++ {
			a.Post(delays[rng.Intn(len(delays))], Kind(rng.Intn(3)), Payload{int32(i)})
		}
		for i := rng.Intn(60); i > 0 && a.Step(); i-- {
		}
		if rng.Intn(2) == 0 {
			a.RunUntil(a.Now() + delays[rng.Intn(len(delays))])
		}
		st, err := a.Export()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// The state reaches the import through the restart-state encoding.
		r := codec.NewReader(st.Append(nil))
		st = ReadState(r)
		if err := r.Done(); err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		b := build(&logB)
		if err := b.Import(st); err != nil {
			t.Fatalf("seed %d: import: %v", seed, err)
		}
		logA = logA[:0]
		for step := 0; ; step++ {
			sa, _ := a.Export()
			sb, _ := b.Export()
			if !reflect.DeepEqual(sa, sb) {
				t.Fatalf("seed %d step %d: states diverge:\n%+v\n%+v", seed, step, sa, sb)
			}
			if !slices.Equal(logA, logB) {
				t.Fatalf("seed %d step %d: firings diverge:\n%v\n%v", seed, step, logA, logB)
			}
			okA, okB := a.Step(), b.Step()
			if okA != okB {
				t.Fatalf("seed %d step %d: Step %v on the original, %v on the import", seed, step, okA, okB)
			}
			if !okA || step == 200 {
				break
			}
		}
	}
}

// What cannot be written down is refused: a pending closure, Timer or Line
// item, the standard library's source, an import into an engine that has
// run, an event kind without a handler, and a second handler table.
func TestExportRefuses(t *testing.T) {
	e := NewEngineCompact(1)
	e.Handle([]Handler{func(Payload) {}})
	e.After(5, func(*Engine) {})
	if _, err := e.Export(); err == nil {
		t.Error("Export with a closure pending succeeded")
	}
	e.Run()
	NewLine(e, 3, func(int) {}).Push(1)
	if _, err := e.Export(); err == nil {
		t.Error("Export with a line item pending succeeded")
	}
	e.Run()
	e.Post(1, 0, Payload{})
	st, err := e.Export()
	if err != nil {
		t.Fatalf("Export with only a typed event pending: %v", err)
	}
	if _, err := NewEngine(1).Export(); err == nil {
		t.Error("Export over the standard library source succeeded")
	}
	if err := e.Import(st); err == nil {
		t.Error("Import into an engine that has run succeeded")
	}
	if err := NewEngineCompact(1).Import(st); err == nil {
		t.Error("Import of a kind with no handler succeeded")
	}
	defer func() {
		if recover() == nil {
			t.Error("a second handler table was accepted")
		}
	}()
	e.Handle([]Handler{func(Payload) {}})
}

package fleetd

import (
	"container/heap"
	"sort"

	"repro/internal/sim"
)

// The priority cadence scheduler: a deadline min-heap with one entry per
// (network, cadence level), keyed by the level's next firing time. Pop
// order is a total order — (deadline, network ID, level) — so two
// networks sharing a deadline tick always resolve in ascending ID order
// no matter how entries were pushed, and a fleet snapshot is a pure
// function of the network set and seeds, never of heap insertion history.

// pass levels mirror the §4.4.4 schedule: i=0 every 15 minutes, i=1
// (ending in i=0) every 3 hours, i=2 (ending in 1,0) daily.
const (
	levelFast = iota // i=0
	levelMid         // i=1,0
	levelDeep        // i=2,1,0
	numLevels
)

// levelHops maps a cadence level to the NBO hop-limit schedule it runs.
var levelHops = [numLevels][]int{{0}, {1, 0}, {2, 1, 0}}

func levelName(level int) string {
	return [numLevels]string{"i0", "i1", "i2"}[level]
}

// passEntry is one scheduled pass.
type passEntry struct {
	at    sim.Time
	id    int // network ID
	level int
}

// before is the scheduler's total order: (at, id, level).
func (a passEntry) before(b passEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.id != b.id {
		return a.id < b.id
	}
	return a.level < b.level
}

type passHeap []passEntry

func (h passHeap) Len() int           { return len(h) }
func (h passHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h passHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *passHeap) Push(x any)        { *h = append(*h, x.(passEntry)) }
func (h *passHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// scheduler wraps the heap with the two operations the controller needs.
// It is not internally synchronized; the controller serializes access.
type scheduler struct {
	h passHeap
}

func (s *scheduler) push(e passEntry) { heap.Push(&s.h, e) }

// popDue pops every entry sharing the earliest deadline, provided that
// deadline is <= maxAt. Entries come back sorted by (id, level) — the
// heap order restricted to one instant — which is the deterministic tick
// resolution order.
func (s *scheduler) popDue(maxAt sim.Time) (sim.Time, []passEntry) {
	if len(s.h) == 0 || s.h[0].at > maxAt {
		return 0, nil
	}
	t := s.h[0].at
	var due []passEntry
	for len(s.h) > 0 && s.h[0].at == t {
		due = append(due, heap.Pop(&s.h).(passEntry))
	}
	return t, due
}

// entries returns a copy of all pending entries in total (at, id, level)
// order — the canonical dump checkpoints serialise.
func (s *scheduler) entries() []passEntry {
	out := append([]passEntry(nil), s.h...)
	sort.Slice(out, func(i, j int) bool { return out[i].before(out[j]) })
	return out
}

// reschedule moves the pending entry for (id, level) to a new deadline in
// place — the entry is replaced, never duplicated, so a cadence change
// between ticks cannot make a level fire twice. Returns false when no
// entry for the pair is pending (popped but not yet rescheduled, or the
// level is disabled).
func (s *scheduler) reschedule(id, level int, at sim.Time) bool {
	for i := range s.h {
		if s.h[i].id == id && s.h[i].level == level {
			s.h[i].at = at
			heap.Fix(&s.h, i)
			return true
		}
	}
	return false
}

// dropLevel removes the pending entry for one (network, level) pair —
// disabling a single cadence level without touching the others.
func (s *scheduler) dropLevel(id, level int) bool {
	for i := range s.h {
		if s.h[i].id == id && s.h[i].level == level {
			heap.Remove(&s.h, i)
			return true
		}
	}
	return false
}

// when reports the pending deadline for (id, level).
func (s *scheduler) when(id, level int) (sim.Time, bool) {
	for i := range s.h {
		if s.h[i].id == id && s.h[i].level == level {
			return s.h[i].at, true
		}
	}
	return 0, false
}

// dropNetwork removes every pending entry for a network (after Remove),
// so a removed network costs nothing even if its deadlines were far out.
func (s *scheduler) dropNetwork(id int) int {
	kept := s.h[:0]
	dropped := 0
	for _, e := range s.h {
		if e.id == id {
			dropped++
			continue
		}
		kept = append(kept, e)
	}
	s.h = kept
	if dropped > 0 {
		heap.Init(&s.h)
	}
	return dropped
}

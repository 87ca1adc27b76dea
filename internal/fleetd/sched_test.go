package fleetd

import (
	"testing"

	"repro/internal/sim"
)

// Two networks sharing a deadline must resolve in ascending (id, level)
// order no matter how their entries were pushed.
func TestSchedulerTieOrderIsInsertionIndependent(t *testing.T) {
	at := 15 * sim.Minute
	want := []passEntry{
		{at: at, id: 1, level: levelFast},
		{at: at, id: 1, level: levelDeep},
		{at: at, id: 2, level: levelMid},
		{at: at, id: 5, level: levelFast},
	}
	pushOrders := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{2, 0, 3, 1},
		{1, 3, 0, 2},
	}
	for _, order := range pushOrders {
		var s scheduler
		s.push(passEntry{at: at + sim.Hour, id: 0, level: levelFast}) // later deadline stays queued
		for _, i := range order {
			s.push(want[i])
		}
		gotAt, due := s.popDue(at)
		if gotAt != at {
			t.Fatalf("popDue time = %v, want %v", gotAt, at)
		}
		if len(due) != len(want) {
			t.Fatalf("popDue returned %d entries, want %d", len(due), len(want))
		}
		for i := range want {
			if due[i] != want[i] {
				t.Fatalf("push order %v: due[%d] = %+v, want %+v", order, i, due[i], want[i])
			}
		}
		if rest := s.entries(); len(rest) != 1 || rest[0].at != at+sim.Hour {
			t.Fatalf("later entry lost: pending %+v", rest)
		}
	}
}

func TestSchedulerPopDueRespectsHorizon(t *testing.T) {
	var s scheduler
	s.push(passEntry{at: sim.Hour, id: 0, level: levelFast})
	if at, due := s.popDue(sim.Minute); due != nil {
		t.Fatalf("popDue past horizon returned %v at %v", due, at)
	}
	if _, due := s.popDue(sim.Hour); len(due) != 1 {
		t.Fatalf("popDue at horizon returned %d entries, want 1", len(due))
	}
	if _, due := s.popDue(sim.Day); due != nil {
		t.Fatal("empty scheduler returned entries")
	}
}

// A cadence change between ticks moves the pending entry in place: the
// heap never gains a duplicate for the pair, the new deadline wins the
// pop order, and a pair with no pending entry reports the miss so the
// caller can push a fresh entry instead.
func TestSchedulerRescheduleReplacesInPlace(t *testing.T) {
	var s scheduler
	s.push(passEntry{at: 10 * sim.Minute, id: 0, level: levelFast})
	s.push(passEntry{at: 3 * sim.Hour, id: 0, level: levelMid})
	s.push(passEntry{at: 10 * sim.Minute, id: 1, level: levelFast})

	if !s.reschedule(0, levelFast, 2*sim.Minute) {
		t.Fatal("reschedule of a pending entry = false")
	}
	if got := len(s.entries()); got != 3 {
		t.Fatalf("heap has %d entries after reschedule, want 3 (replaced, not duplicated)", got)
	}
	if at, ok := s.when(0, levelFast); !ok || at != 2*sim.Minute {
		t.Fatalf("when(0, fast) = %v, %v; want 2m, true", at, ok)
	}
	at, due := s.popDue(sim.Day)
	if at != 2*sim.Minute || len(due) != 1 || due[0].id != 0 || due[0].level != levelFast {
		t.Fatalf("rescheduled entry did not pop first: at=%v due=%+v", at, due)
	}
	// Once popped the pair has no pending entry: reschedule must miss.
	if s.reschedule(0, levelFast, sim.Hour) {
		t.Fatal("reschedule of a popped entry = true")
	}
	if s.reschedule(0, levelDeep, sim.Hour) {
		t.Fatal("reschedule of a never-scheduled level = true")
	}
	if _, due := s.popDue(2 * sim.Minute); due != nil {
		t.Fatalf("phantom entries remain: %+v", due)
	}
}

func TestSchedulerDropLevelAndWhen(t *testing.T) {
	var s scheduler
	for id := 0; id < 3; id++ {
		s.push(passEntry{at: 10 * sim.Minute, id: id, level: levelFast})
		s.push(passEntry{at: 3 * sim.Hour, id: id, level: levelMid})
	}
	if !s.dropLevel(1, levelMid) {
		t.Fatal("dropLevel of a pending entry = false")
	}
	if s.dropLevel(1, levelMid) {
		t.Fatal("second dropLevel = true")
	}
	if _, ok := s.when(1, levelMid); ok {
		t.Fatal("dropped level still pending")
	}
	if at, ok := s.when(1, levelFast); !ok || at != 10*sim.Minute {
		t.Fatalf("sibling level perturbed by dropLevel: %v, %v", at, ok)
	}
	if got := len(s.entries()); got != 5 {
		t.Fatalf("heap has %d entries, want 5", got)
	}
}

func TestSchedulerDropNetwork(t *testing.T) {
	var s scheduler
	for id := 0; id < 4; id++ {
		s.push(passEntry{at: 10 * sim.Minute, id: id, level: levelFast})
		s.push(passEntry{at: 3 * sim.Hour, id: id, level: levelMid})
	}
	if got := s.dropNetwork(2); got != 2 {
		t.Fatalf("dropNetwork removed %d entries, want 2", got)
	}
	if got := s.dropNetwork(2); got != 0 {
		t.Fatalf("second dropNetwork removed %d entries, want 0", got)
	}
	for {
		_, due := s.popDue(sim.Day)
		if due == nil {
			break
		}
		for _, e := range due {
			if e.id == 2 {
				t.Fatalf("dropped network still scheduled: %+v", e)
			}
		}
	}
}

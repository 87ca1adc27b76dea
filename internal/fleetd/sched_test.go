package fleetd

import (
	"testing"

	"repro/internal/sim"
)

// when reports the pending deadline for (id, level).
func (s *scheduler) when(id, level int) (sim.Time, bool) {
	for i := range s.h {
		if s.h[i].id == id && s.h[i].level == level {
			return s.h[i].at, true
		}
	}
	return 0, false
}

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

// dropNetwork removes every level of one network and leaves the others'
// deadlines pending where they were.
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
	if _, ok := s.when(2, levelMid); ok {
		t.Fatal("dropped network still pending")
	}
	if at, ok := s.when(1, levelMid); !ok || at != 3*sim.Hour {
		t.Fatalf("sibling network perturbed by dropNetwork: %v, %v", at, ok)
	}
	if got := len(s.entries()); got != 6 {
		t.Fatalf("heap has %d entries, want 6", got)
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

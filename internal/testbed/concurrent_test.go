package testbed

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestConcurrentRunsReportApart runs two golden shapes on two goroutines
// in one process. Each run's agent Stats and the fastack metrics folded
// from its agents must equal the same run done alone: no data-plane
// package keeps mutable package state, so two runs neither share a count
// nor race (make race runs this under the race detector).
func TestConcurrentRunsReportApart(t *testing.T) {
	const seed = 20170811
	shapes := map[string]func(*Options, int64){}
	for _, row := range goldenRows {
		shapes[row.name] = row.set
	}
	names := []string{"fastack_bulk30_badhint", "fastack_faults2x2"}
	run := func(name string) string {
		opt := DefaultOptions()
		opt.Seed = seed
		opt.Warmup = goldenWarmup
		opt.FastACK.CheckInvariants = true
		shapes[name](&opt, seed)
		tb := New(opt)
		tb.Run(goldenDur)
		reg := obs.NewRegistry()
		for _, ap := range tb.APs {
			if ap.Agent != nil {
				ap.Agent.Fold(reg.Scope("fastack"))
			}
		}
		var sent int64
		var b strings.Builder
		for i, st := range tb.AgentStatsPerAP() {
			fmt.Fprintf(&b, "agent[%d] %+v\n", i, st)
			sent += st.FastAcksSent
		}
		snap := reg.Snapshot()
		if got := snap.Counters["fastack.fast_acks_sent"]; got != sent || sent == 0 {
			t.Errorf("%s: folded fast_acks_sent %d, agents sent %d", name, got, sent)
		}
		if _, err := snap.WriteText(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}

	alone := make([]string, len(names))
	for i, name := range names {
		alone[i] = run(name)
	}
	together := make([]string, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(name)
		}()
	}
	wg.Wait()
	for i, name := range names {
		if together[i] != alone[i] {
			t.Errorf("%s run beside another differs from the run alone:\n%s\nalone:\n%s", name, together[i], alone[i])
		}
	}
}

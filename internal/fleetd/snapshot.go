package fleetd

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/backend"
	"repro/internal/spectrum"
	"repro/internal/stats"
)

// NetworkStatus is one network's row in a fleet snapshot.
type NetworkStatus struct {
	ID  int
	Key string
	APs int
	// LogNetP5 / LogNetP24 are the planner's last objective values per
	// band (0 until the first pass runs).
	LogNetP5, LogNetP24 float64
	// Converged reports intended-vs-actual plan agreement across the
	// network's APs.
	Converged bool
	// Switches counts applied AP channel changes since registration.
	Switches int
	// Passes / Shed / Coalesced count scheduler outcomes by cadence
	// level.
	Passes    [numLevels]int
	Shed      [numLevels]int
	Coalesced int
	// Degraded counts band-invocations whose deep passes the staleness
	// guard downgraded to i=0.
	Degraded int
	// Quarantined marks a network isolated after a faulted pass (panic or
	// watchdog cancellation). Its planner-derived fields read as zero (see
	// netState.live).
	Quarantined bool
}

// Snapshot is the fleet-wide state at one instant: every network's
// status in ascending ID order plus cross-network distribution
// summaries. It is a pure function of the controller's configuration and
// network set — byte-identical across worker counts.
type Snapshot struct {
	Networks []NetworkStatus

	// TotalAPs, TotalSwitches, ConvergedNets aggregate the rows above.
	TotalAPs, TotalSwitches, ConvergedNets int
	Passes, Shed                           [numLevels]int
	// QuarantinedNets counts networks isolated by pass supervision.
	QuarantinedNets int

	// LogNetP5 summarizes the per-network 5 GHz objective across networks
	// that have completed at least one pass; Util summarizes the modeled
	// utilization of every AP of every built, unquarantined network at the
	// snapshot instant (backend.Model.Evaluate at Now).
	LogNetP5 stats.Summary
	Util     stats.Summary
}

// live returns the network's backend if its planner-derived state is
// deterministic, else nil. A quarantined network's backend froze mid-fault
// (a wedged pass aborts at a wall-clock-dependent point), so nothing
// derived from it reaches a snapshot or checkpoint bytes; an unbuilt
// network has no backend yet.
func (ns *netState) live() *backend.Backend {
	if ns.quarantined {
		return nil
	}
	return ns.be
}

// status builds one network's row, the one row Snapshot aggregates and
// every checkpoint carries.
func status(ns *netState) NetworkStatus {
	st := NetworkStatus{
		ID:        ns.id,
		Key:       ns.key,
		APs:       ns.apCount,
		Passes:    ns.passes,
		Shed:      ns.shed,
		Coalesced: ns.coalesced,
		// A network the scheduler has not touched yet (lazy build
		// pending) has run nothing and diverged from nothing; it reads as
		// a converged zero row, exactly like a built network before its
		// first pass. A quarantined one reads as unconverged.
		Converged:   !ns.quarantined,
		Quarantined: ns.quarantined,
	}
	if be := ns.live(); be != nil {
		st.LogNetP5 = be.Service.LastLogNetP[spectrum.Band5]
		st.LogNetP24 = be.Service.LastLogNetP[spectrum.Band2G4]
		st.Converged = be.Converged()
		st.Switches = be.Switches()
		st.Degraded = be.Service.DegradedTotal
	}
	return st
}

// Snapshot captures the fleet's current state. Call it from the control
// loop (after Run returns); it reads per-network planner state that
// in-flight passes would be writing.
func (c *Controller) Snapshot() Snapshot {
	var snap Snapshot
	logNetP, util := stats.NewSample(0), stats.NewSample(0)
	for _, ns := range c.nets() {
		st := status(ns)
		if be := ns.live(); be != nil {
			for _, p := range be.Model.Evaluate(c.now) {
				util.Add(p.Utilization)
			}
		}
		if st.Quarantined {
			snap.QuarantinedNets++
		}
		snap.Networks = append(snap.Networks, st)
		snap.TotalAPs += st.APs
		snap.TotalSwitches += st.Switches
		if st.Converged {
			snap.ConvergedNets++
		}
		for level := 0; level < numLevels; level++ {
			snap.Passes[level] += st.Passes[level]
			snap.Shed[level] += st.Shed[level]
		}
		if st.Passes[levelFast]+st.Passes[levelMid]+st.Passes[levelDeep] > 0 {
			logNetP.Add(st.LogNetP5)
		}
	}
	snap.LogNetP5 = logNetP.Summarize()
	snap.Util = util.Summarize()
	return snap
}

// WriteText renders the snapshot's fleet-level summary plus the worst
// networks by 5 GHz objective — the operator's overview page.
func (s Snapshot) WriteText(w *strings.Builder) {
	fmt.Fprintf(w, "fleet: %d networks, %d APs, %d/%d converged, %d switches\n",
		len(s.Networks), s.TotalAPs, s.ConvergedNets, len(s.Networks), s.TotalSwitches)
	fmt.Fprintf(w, "passes: i0=%d i1=%d i2=%d  shed: i0=%d i1=%d i2=%d\n",
		s.Passes[0], s.Passes[1], s.Passes[2], s.Shed[0], s.Shed[1], s.Shed[2])
	if s.QuarantinedNets > 0 {
		fmt.Fprintf(w, "quarantined: %d networks isolated after faulted passes\n", s.QuarantinedNets)
	}
	fmt.Fprintf(w, "logNetP5 across networks: %v\n", s.LogNetP5)
	fmt.Fprintf(w, "AP utilization across fleet: %v\n", s.Util)
	worst := s.worstNetworks(5)
	if len(worst) > 0 {
		fmt.Fprintf(w, "worst networks by logNetP5:\n")
		for _, st := range worst {
			if st.Quarantined {
				fmt.Fprintf(w, "  %s  aps=%-4d QUARANTINED\n", st.Key, st.APs)
				continue
			}
			fmt.Fprintf(w, "  %s  aps=%-4d logNetP5=%8.2f converged=%-5v switches=%d\n",
				st.Key, st.APs, st.LogNetP5, st.Converged, st.Switches)
		}
	}
}

// worstNetworks returns up to n networks needing attention, worst first:
// quarantined networks lead (a faulted control plane beats any bad
// objective), then planned networks by lowest 5 GHz objective, ties
// broken by ascending ID.
func (s Snapshot) worstNetworks(n int) []NetworkStatus {
	var planned []NetworkStatus
	for _, st := range s.Networks {
		if st.Quarantined ||
			st.Passes[levelFast]+st.Passes[levelMid]+st.Passes[levelDeep] > 0 {
			planned = append(planned, st)
		}
	}
	sort.Slice(planned, func(i, j int) bool {
		a, b := planned[i], planned[j]
		if a.Quarantined != b.Quarantined {
			return a.Quarantined
		}
		if a.LogNetP5 != b.LogNetP5 {
			return a.LogNetP5 < b.LogNetP5
		}
		return a.ID < b.ID
	})
	return planned[:min(n, len(planned))]
}

func (s Snapshot) String() string {
	var b strings.Builder
	s.WriteText(&b)
	return b.String()
}

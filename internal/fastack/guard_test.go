package fastack

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// guardConfig returns a checked, guard-enabled config with thresholds
// small enough to exercise transitions inside a unit test.
func guardConfig() Config {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	return cfg
}

// flowKey is the downlink 5-tuple the harness helpers produce.
func flowKey() packet.Flow { return data(1000).Flow() }

// buildDebt walks a flow through handshake and three delivered segments
// with no client ACKs: fack = 4000, seqTCP = 1000, debt = 3000.
func buildDebt(t *testing.T, h *harness) {
	t.Helper()
	h.handshake(t)
	for i := uint32(0); i < 3; i++ {
		h.a.HandleDownlink(data(1000 + i*segLen))
	}
	for i := uint32(0); i < 3; i++ {
		h.a.HandleWirelessAck(data(1000+i*segLen), true)
	}
	f := h.a.flows[flowKey()]
	if f.debtBytes() != 3000 {
		t.Fatalf("debt = %d, want 3000", f.debtBytes())
	}
}

func TestGuardDebtStallBypassesThenDrains(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)

	// Debt frozen past the stall timeout: the next event trips Bypass.
	h.now += h.a.cfg.Guard.DebtStallTimeout + sim.Millisecond
	h.a.HandleDownlink(data(4000))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass", st)
	}
	if s := h.a.Stats(); s.GuardBypasses != 1 {
		t.Fatalf("GuardBypasses = %d", s.GuardBypasses)
	}

	// No suppression in bypass: the client's ACK reaches the sender, and
	// progress moves the flow to Draining.
	disp := h.a.HandleUplink(clientAck(2000, 2048))
	if !disp.Forward {
		t.Fatal("bypassed flow suppressed a client ACK")
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardDraining {
		t.Fatalf("state = %v, want draining", st)
	}

	// Debt repaid: clean detach into pass-through, cache released.
	h.a.HandleUplink(clientAck(4000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardPassThrough {
		t.Fatalf("state = %v, want passthrough", st)
	}
	if s := h.a.Stats(); s.GuardDrains != 1 {
		t.Fatalf("GuardDrains = %d", s.GuardDrains)
	}
	f := h.a.flows[flowKey()]
	if f.cache.Len() != 0 || f.cacheBytes != 0 {
		t.Fatalf("detached flow retains cache: %d entries %dB", f.cache.Len(), f.cacheBytes)
	}
	if v := h.a.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestGuardBypassStopsFastAcks(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	h.now += h.a.cfg.Guard.DebtStallTimeout + sim.Millisecond
	h.a.HandleDownlink(data(4000)) // trips debt_stall

	// Delivered segments no longer generate fast ACKs.
	if disp := h.a.HandleWirelessAck(data(4000), true); len(disp.ToSender) != 0 {
		t.Fatalf("bypassed flow emitted a fast ACK: %+v", disp)
	}
	// Downlink passes through untouched: nothing cached, no hole dup-ACKs
	// even for a gap.
	holes := h.a.Stats().HolesDetected
	if disp := h.a.HandleDownlink(data(9000)); !disp.Forward || len(disp.ToSender) != 0 {
		t.Fatalf("bypassed downlink: %+v", disp)
	}
	if h.a.Stats().HolesDetected != holes {
		t.Fatal("bypassed flow recorded a hole")
	}
}

func TestGuardBypassRepairsDebtHole(t *testing.T) {
	cfg := guardConfig()
	cfg.DupAckThreshold = 2
	h := newHarness(cfg)
	buildDebt(t, h)
	h.now += h.a.cfg.Guard.DebtStallTimeout + sim.Millisecond
	h.a.HandleDownlink(data(4000))

	// The client is missing 2000..3000 — inside the debt range, so only
	// the agent can repair it. Dup-ACKs at threshold pull it from the
	// cache; the ACKs themselves still reach the sender.
	h.a.HandleUplink(clientAck(2000, 2048))
	h.a.HandleUplink(clientAck(2000, 2048))
	disp := h.a.HandleUplink(clientAck(2000, 2048))
	if !disp.Forward {
		t.Fatal("bypassed dup-ACK suppressed")
	}
	if len(disp.ToClient) != 1 || disp.ToClient[0].TCP.Seq != 2000 {
		t.Fatalf("expected local repair of 2000: %+v", disp)
	}

	// A MAC drop inside the debt range is also still repaired.
	if disp := h.a.HandleWirelessAck(data(3000), false); len(disp.ToClient) != 1 {
		t.Fatalf("expected debt redrive after MAC drop: %+v", disp)
	}
	if v := h.a.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestGuardWildAckSuspectThenBypass(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	f := h.a.flows[flowKey()]
	// No client progress for a full suspect window: anomalies now escalate.
	h.now += suspectWindow + 50*sim.Millisecond

	// A cumulative ACK far beyond seq_high is corruption: forwarded, but
	// never folded into the flow state.
	wild := clientAck(f.seqHigh+5_000_000, 2048)
	if disp := h.a.HandleUplink(wild); !disp.Forward {
		t.Fatal("wild ACK must be forwarded")
	}
	if f.seqTCP != 1000 {
		t.Fatalf("wild ACK advanced seqTCP to %d", f.seqTCP)
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardSuspect {
		t.Fatalf("state = %v, want suspect", st)
	}
	// A second anomaly inside the suspect window is no coincidence.
	h.a.HandleUplink(clientAck(f.seqHigh+6_000_000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass", st)
	}
	if s := h.a.Stats(); s.GuardSuspects != 1 || s.GuardBypasses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestGuardSuspectDecaysToActive(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	f := h.a.flows[flowKey()]
	h.a.HandleUplink(clientAck(f.seqHigh+5_000_000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardSuspect {
		t.Fatalf("state = %v, want suspect", st)
	}
	// A clean suspect window clears the verdict; fast-acking continues.
	h.now += suspectWindow + sim.Millisecond
	h.a.HandleUplink(clientAck(2000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardActive {
		t.Fatalf("state = %v, want active", st)
	}
	if disp := h.a.HandleDownlink(data(4000)); !disp.Forward {
		t.Fatal("recovered flow must keep forwarding")
	}
	if disp := h.a.HandleWirelessAck(data(4000), true); len(disp.ToSender) != 1 {
		t.Fatalf("recovered flow must keep fast-acking: %+v", disp)
	}
}

// TestGuardAnomaliesToleratedWhileProgressing pins the escalation gate:
// corrupted headers riding a stream that keeps delivering hold the flow in
// Suspect indefinitely instead of burning its FastACK service for good.
func TestGuardAnomaliesToleratedWhileProgressing(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	f := h.a.flows[flowKey()]
	next := uint32(2000)
	for i := 0; i < 10; i++ {
		h.now += 20 * sim.Millisecond
		h.a.HandleUplink(clientAck(f.seqHigh+5_000_000, 2048)) // corrupt ack
		h.a.HandleUplink(clientAck(next, 2048))                // real progress
		next += 100
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st == GuardBypass {
		t.Fatal("progressing flow tripped to bypass on survivable noise")
	}
	if h.a.Stats().GuardBypasses != 0 {
		t.Fatalf("stats: %+v", h.a.Stats())
	}
}

func TestGuardSeqJumpAnomaly(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	// No client progress for a full suspect window: anomalies now escalate.
	h.now += suspectWindow + 50*sim.Millisecond

	// A sequence an implausible distance past seq_exp is treated as a
	// mangled header, not an upstream hole: forwarded untouched.
	jump := data(4000 + maxSeqJump + 1)
	disp := h.a.HandleDownlink(jump)
	if !disp.Forward || len(disp.ToSender) != 0 {
		t.Fatalf("seq jump handling: %+v", disp)
	}
	if h.a.Stats().HolesDetected != 0 {
		t.Fatal("seq jump recorded as a hole")
	}
	f := h.a.flows[flowKey()]
	if f.hasHole() || f.seqHigh != 4000 {
		t.Fatalf("seq jump polluted flow state: %s", f)
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardSuspect {
		t.Fatalf("state = %v, want suspect", st)
	}
	h.a.HandleDownlink(jump)
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass", st)
	}
}

func TestGuardRetransmitStorm(t *testing.T) {
	cfg := guardConfig()
	cfg.DupAckThreshold = 2
	cfg.Guard.StormThreshold = 3
	h := newHarness(cfg)
	buildDebt(t, h)

	// The client dup-ACKs 2000 forever and the repairs change nothing:
	// after StormThreshold progress-free local retransmits the guard
	// concludes the repair loop is pathological.
	for round := 0; round < 3; round++ {
		h.a.HandleUplink(clientAck(2000, 2048))
		h.a.HandleUplink(clientAck(2000, 2048))
		h.a.HandleUplink(clientAck(2000, 2048))
		h.now += h.a.cfg.RtxGuard + sim.Millisecond
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass after storm", st)
	}
	if s := h.a.Stats(); s.GuardBypasses != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestGuardStormResetOnProgress(t *testing.T) {
	cfg := guardConfig()
	cfg.DupAckThreshold = 2
	cfg.Guard.StormThreshold = 3
	h := newHarness(cfg)
	buildDebt(t, h)

	// Two retransmits, then the client advances: healthy §5.7 bad-hint
	// repair, not a storm.
	h.a.HandleUplink(clientAck(2000, 2048))
	h.a.HandleUplink(clientAck(2000, 2048))
	h.a.HandleUplink(clientAck(2000, 2048))
	h.now += h.a.cfg.RtxGuard + sim.Millisecond
	h.a.HandleUplink(clientAck(2000, 2048))
	h.a.HandleUplink(clientAck(2000, 2048))
	h.a.HandleUplink(clientAck(3000, 2048)) // progress resets the counter
	h.now += h.a.cfg.RtxGuard + sim.Millisecond
	h.a.HandleUplink(clientAck(3000, 2048))
	h.a.HandleUplink(clientAck(3000, 2048))
	h.a.HandleUplink(clientAck(3000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardActive {
		t.Fatalf("state = %v, want active (progress between bursts)", st)
	}
}

func TestRSTWithDebtDrainsFirst(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)

	rst := data(4000)
	rst.TCP.Flags = packet.FlagRST
	rst.PayloadLen = 0
	if disp := h.a.HandleDownlink(rst); !disp.Forward {
		t.Fatal("RST must be forwarded")
	}
	// The flow still owes [1000, 4000): state is retained in Bypass until
	// the client's ACKs catch up.
	f, ok := h.a.flows[flowKey()]
	if !ok {
		t.Fatal("RST discarded a flow carrying fast-ACK debt")
	}
	if f.gstate != GuardBypass {
		t.Fatalf("state = %v, want bypass", f.gstate)
	}
	if !f.cacheCovers(f.seqTCP, f.seqFack) {
		t.Fatal("cache no longer covers the debt range")
	}

	// Debt repaid: the tombstone is debt-free, so a second RST (or Sweep)
	// may discard it.
	h.a.HandleUplink(clientAck(4000, 2048))
	if disp := h.a.HandleDownlink(rst); !disp.Forward {
		t.Fatal("RST must be forwarded")
	}
	if _, ok := h.a.flows[flowKey()]; ok {
		t.Fatal("debt-free RST should drop the flow")
	}
	if v := h.a.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestSweepRetainsDebtUntilDrainExpiry(t *testing.T) {
	cfg := guardConfig()
	cfg.IdleExpiry = sim.Minute
	cfg.Guard.DrainExpiry = sim.Minute
	h := newHarness(cfg)
	buildDebt(t, h)

	// Past IdleExpiry but inside the drain grace: retained and bypassed.
	h.now += 90 * sim.Second
	if n := h.a.Sweep(); n != 0 {
		t.Fatalf("Sweep removed %d flows carrying debt", n)
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass (idle_debt)", st)
	}
	// Past IdleExpiry + DrainExpiry: the drain failed; give up.
	h.now += 60 * sim.Second
	if n := h.a.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d flows, want 1", n)
	}
}

func TestSweepStillExpiresDebtFreeFlows(t *testing.T) {
	cfg := guardConfig()
	cfg.IdleExpiry = sim.Minute
	h := newHarness(cfg)
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	h.a.HandleWirelessAck(data(1000), true)
	h.a.HandleUplink(clientAck(2000, 2048)) // debt repaid
	h.now += 2 * sim.Minute
	if n := h.a.Sweep(); n != 1 {
		t.Fatalf("Sweep removed %d flows, want 1", n)
	}
}

func TestExportImportCarriesGuardState(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	h.now += h.a.cfg.Guard.DebtStallTimeout + sim.Millisecond
	h.a.HandleDownlink(data(4000)) // bypass via debt_stall

	ex, ok := h.a.Export(flowKey())
	if !ok {
		t.Fatal("export failed")
	}
	if ex.Guard != GuardBypass || ex.DebtAtBypass != 3000 {
		t.Fatalf("exported guard = %v debt = %d", ex.Guard, ex.DebtAtBypass)
	}

	// The roam-to agent must not resurrect the flow into fast-acking, and
	// must not impersonate the client with a resync ACK.
	h2 := newHarness(guardConfig())
	h2.now = h.now
	if resync := h2.a.Import(ex); resync != nil {
		t.Fatalf("bypassed import returned a resync ACK: %+v", resync)
	}
	if st, _ := h2.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("imported state = %v, want bypass", st)
	}
	// The debt drains on the new AP.
	h2.a.HandleUplink(clientAck(4000, 2048))
	if st, _ := h2.a.FlowGuardState(flowKey()); st != GuardPassThrough {
		t.Fatalf("state = %v, want passthrough", st)
	}
	if v := append(h.a.Violations(), h2.a.Violations()...); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestCacheEvictionNeverTouchesDebt(t *testing.T) {
	cfg := guardConfig()
	cfg.CacheLimitBytes = 2 * segLen
	h := newHarness(cfg)
	h.handshake(t)
	// Two segments delivered and fast-ACKed: debt = [1000, 3000), and the
	// cache is exactly at its budget holding that range.
	h.a.HandleDownlink(data(1000))
	h.a.HandleDownlink(data(2000))
	h.a.HandleWirelessAck(data(1000), true)
	h.a.HandleWirelessAck(data(2000), true)
	// A third segment needs cache space, but every evictable byte is
	// vouched for: eviction is refused (budget overrun) and the guard
	// trips cache_thrash.
	h.a.HandleDownlink(data(3000))

	f := h.a.flows[flowKey()]
	if !f.cacheCovers(f.seqTCP, f.seqFack) {
		t.Fatal("eviction broke debt coverage")
	}
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardBypass {
		t.Fatalf("state = %v, want bypass (cache_thrash)", st)
	}
	if v := h.a.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

func TestSYNResetsStaleStateAndGuard(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	h.now += h.a.cfg.Guard.DebtStallTimeout + sim.Millisecond
	h.a.HandleDownlink(data(4000)) // bypass

	// A fresh SYN on the same 5-tuple is a new connection: old cache,
	// debt, and guard verdicts must not leak into it.
	syn := packet.NewTCPDatagram(serverEP, clientEP, 0)
	syn.TCP.Seq = 70000
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.WindowScale = 7
	h.a.HandleDownlink(syn)
	f := h.a.flows[flowKey()]
	if f.gstate != GuardActive || f.cache.Len() != 0 || f.debtBytes() != 0 {
		t.Fatalf("SYN left stale state: %s", f)
	}
	if f.seqExp != 70001 {
		t.Fatalf("seqExp = %d, want 70001", f.seqExp)
	}
}

// TestInvariantCheckerFires is the positive control: a hand-corrupted flow
// must trip the checker (everything else in this file asserts it stays
// silent on legal histories).
func TestInvariantCheckerFires(t *testing.T) {
	h := newHarness(guardConfig())
	buildDebt(t, h)
	f := h.a.flows[flowKey()]

	f.seqFack = f.seqExp + 5000 // fast-ACK beyond the wire frontier
	h.a.checkFlow(f)
	if h.a.Stats().InvariantViolations == 0 || len(h.a.Violations()) == 0 {
		t.Fatal("checker missed seq_fack > seq_exp")
	}

	h2 := newHarness(guardConfig())
	buildDebt(t, h2)
	f2 := h2.a.flows[flowKey()]
	f2.gstate = GuardDraining
	f2.releaseCache() // debt range now uncovered
	f2.cacheBytes = 0
	h2.a.checkFlow(f2)
	if h2.a.Stats().InvariantViolations == 0 {
		t.Fatal("checker missed an uncovered debt range")
	}
}

// TestGuardDisableRestoresLegacyLifecycle pins the RST life cycle the guard
// gives every flow (it can no longer be disabled): an RST on a debt-free
// flow discards it, an RST on a flow with debt drains it first.
func TestGuardDisableRestoresLegacyLifecycle(t *testing.T) {
	h := newHarness(guardConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	h.a.HandleWirelessAck(data(1000), true)
	h.a.HandleUplink(clientAck(2000, 2048)) // debt repaid
	rst := data(2000)
	rst.TCP.Flags = packet.FlagRST
	rst.PayloadLen = 0
	h.a.HandleDownlink(rst)
	if _, ok := h.a.flows[flowKey()]; ok {
		t.Fatal("RST kept a debt-free flow")
	}

	h = newHarness(guardConfig())
	buildDebt(t, h)
	h.a.HandleDownlink(rst)
	if st, ok := h.a.FlowGuardState(flowKey()); !ok || st != GuardBypass {
		t.Fatalf("RST with debt: state %v (tracked %v), want bypass", st, ok)
	}
	h.a.HandleUplink(clientAck(4000, 2048))
	if st, _ := h.a.FlowGuardState(flowKey()); st != GuardPassThrough {
		t.Fatalf("state = %v after the client caught up, want passthrough", st)
	}
	if v := h.a.Violations(); len(v) != 0 {
		t.Fatalf("invariant violations: %v", v)
	}
}

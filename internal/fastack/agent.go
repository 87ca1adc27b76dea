// Package fastack implements the FastACK agent of Section 5: an AP-side
// mechanism that converts 802.11 block-acknowledgement feedback into
// proactively generated TCP ACKs ("fast ACKs") toward the sender,
// suppresses the client's now-duplicate TCP ACKs, serves duplicate-ACK and
// SACK retransmissions from a local cache, rewrites the advertised receive
// window to prevent client buffer overflow, and emulates the client for
// upstream packet loss (TCP holes).
//
// The agent is transport-glue agnostic: it consumes decoded datagrams and
// returns dispositions (forward / drop / elevate) plus any packets to
// inject toward the sender or the client. The testbed package wires it
// between the wired port and the MAC layer of an AP.
//
// Every TCP flow is fast-ACKed from its first downlink data segment
// (footnote 10's "mark all flows"). Each kind of event takes one path in
// every safety-guard state (guard.go): it passes the guard's gate, then
// the state decides along the path what the agent may do — for a client's
// pure ACK, whether it is suppressed, which duplicates are repaired,
// whether repairs feed the storm detector and whether the drain applies.
//
// The hot path is allocation-free in steady state: cache entries and
// generated ACKs come from a per-agent datagram pool, per-flow queues are
// ring buffers, and Disposition inject slices are scratch buffers owned by
// the agent (see Disposition for the lifetime contract).
package fastack

import (
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// Config tunes the agent; New gives zero fields their production default.
type Config struct {
	// CacheLimitBytes bounds the per-flow retransmission cache. Zero
	// means the default of 4 MiB (a full receive window).
	CacheLimitBytes int
	// SharedCacheBudgetBytes bounds the retransmission-cache bytes summed
	// across every flow the agent tracks. When an insert pushes the total
	// over, least-recently-inserted flows yield their oldest non-vouched
	// segments (see budget.go); if every remaining byte is vouched the
	// inserting flow trips the cache_thrash guard. Zero means the default
	// of 64 MiB; negative disables the cross-flow bound.
	SharedCacheBudgetBytes int
	// DupAckThreshold is how many duplicate client ACKs trigger a local
	// retransmission. The classic value is 3; FastACK can afford 2
	// because the AP knows link-layer delivery state.
	DupAckThreshold int
	// RtxGuard is the minimum interval between local retransmissions of
	// the same hole; duplicate ACKs arriving inside the window are
	// absorbed. Roughly one over-the-air round trip.
	RtxGuard sim.Time
	// FlowQueueBudget bounds the bytes one flow may hold in the AP's
	// driver queue: the generated window is additionally clamped to
	// budget − (seq_high − seq_fack). §5.5.2 clamps only against the
	// client's buffer; any deployment must also avoid overrunning the
	// AP's own tx-descriptor pool, which would turn the fast-ACK
	// pipeline's pressure into tail drops. Zero disables the clamp.
	FlowQueueBudget int
	// IdleExpiry is how long a flow may be quiet before Sweep drops its
	// state.
	IdleExpiry sim.Time

	// Guard tunes the per-flow safety state machine (guard.go), which is
	// always on; zero fields take production defaults.
	Guard GuardConfig
	// CheckInvariants enables the runtime invariant checker
	// (invariants.go): every violation counts into
	// Stats().InvariantViolations and the bounded Violations() log.
	CheckInvariants bool

	// Ablation switches (benchmarked in bench_test.go; off in production).
	//
	// DisableSuppression forwards the client's duplicate TCP ACKs to the
	// sender instead of dropping them: the sender then sees dup-ACK
	// storms for data it believes acknowledged.
	DisableSuppression bool
	// DisableCache turns off the local retransmission cache: duplicate
	// ACKs are forwarded so the sender repairs end-to-end (§5.5.1 asks
	// "why not let the TCP sender handle these retransmissions?").
	DisableCache bool
}

// DefaultConfig returns the production-like defaults.
func DefaultConfig() Config {
	return Config{
		CacheLimitBytes:        4 << 20,
		SharedCacheBudgetBytes: 64 << 20,
		DupAckThreshold:        2,
		RtxGuard:               15 * sim.Millisecond,
		IdleExpiry:             5 * sim.Minute,
	}
}

// Stats counts agent activity.
type Stats struct {
	FastAcksSent      int64
	ClientAcksDropped int64
	SpuriousDrops     int64 // case (i): retransmissions below seq_fack
	SpuriousReacks    int64 // duplicate fast ACKs answering spurious retransmissions
	ElevatedForwards  int64 // case (ii): end-to-end retransmissions
	HolesDetected     int64 // case (iv): upstream losses
	HoleDupAcksSent   int64
	LocalRetransmits  int64
	WirelessRedrives  int64 // cache re-injections after MAC drop
	BadHints          int64 // client dup-ACK for data we fast-acked
	FeedbackHeals     int64 // seq_fack advanced by a client ACK after lost 802.11 feedback
	CacheEvictions    int64
	WindowUpdates     int64
	FlowsTracked      int64

	// Cross-flow cache budget activity (budget.go).
	SharedCacheEvictions int64 // segments reclaimed from LRU flows by the shared budget
	SharedBudgetOverruns int64 // inserts that left the budget overrun (all evictable bytes vouched)

	// Safety guard activity (guard.go).
	GuardSuspects       int64
	GuardBypasses       int64
	GuardDrains         int64 // bypassed flows whose debt reached zero
	InvariantViolations int64
}

// Disposition tells the AP datapath what to do with a packet and what to
// inject.
//
// Lifetime contract: ToSender and ToClient are scratch slices owned by the
// agent, valid only until the next Handle* call on the same agent — the
// datapath must consume (enqueue or forward) them before re-entering the
// agent. The pointed-to datagrams themselves are caller-owned from this
// moment; a caller that fully relinquishes one may hand it back via
// Recycle.
type Disposition struct {
	// Forward: pass the packet along its normal path.
	Forward bool
	// Elevate: transmit ahead of queued packets (priority elevation for
	// end-to-end retransmissions, case (ii)).
	Elevate bool
	// ToSender carries generated packets (fast ACKs, hole dup-ACKs,
	// window updates) to inject toward the wired TCP sender.
	ToSender []*packet.Datagram
	// ToClient carries local retransmissions to enqueue toward the
	// wireless client, ahead of new data.
	ToClient []*packet.Datagram
}

var forwardOnly = Disposition{Forward: true}

// SegFate reports the link-layer fate of one downlink data packet for
// batched feedback processing: the 802.11 block ACK covered it (OK) or the
// MAC dropped it after exhausting retries.
type SegFate struct {
	Dgram *packet.Datagram
	OK    bool
}

// Agent is one AP's FastACK engine. It is single-goroutine like the Click
// datapath it models; the owning simulator serialises calls.
type Agent struct {
	cfg        Config
	now        func() sim.Time
	flows      map[packet.Flow]*flowState
	stats      Stats
	violations []string

	// bud carries the cross-flow shared state: cache budget, LRU eviction
	// order, datagram pool, running debt counters.
	bud *cacheBudget

	// Scratch backing for Disposition inject slices, reset at each entry
	// point (see the Disposition lifetime contract).
	sndScratch []*packet.Datagram
	cliScratch []*packet.Datagram
	// batch collects the distinct flows touched by one
	// HandleWirelessAckBatch invocation.
	batch []*flowState
}

// New creates an agent. now supplies the current simulation time (used for
// idle expiry).
func New(cfg Config, now func() sim.Time) *Agent {
	if cfg.CacheLimitBytes == 0 {
		cfg.CacheLimitBytes = 4 << 20
	}
	if cfg.SharedCacheBudgetBytes == 0 {
		cfg.SharedCacheBudgetBytes = 64 << 20
	}
	if cfg.DupAckThreshold == 0 {
		cfg.DupAckThreshold = 2
	}
	if cfg.RtxGuard == 0 {
		cfg.RtxGuard = 15 * sim.Millisecond
	}
	if cfg.IdleExpiry == 0 {
		cfg.IdleExpiry = 5 * sim.Minute
	}
	cfg.Guard.applyDefaults()
	if now == nil {
		now = func() sim.Time { return 0 }
	}
	limit := cfg.SharedCacheBudgetBytes
	if limit < 0 {
		limit = 0 // negative disables the cross-flow bound
	}
	return &Agent{
		cfg: cfg, now: now,
		flows: map[packet.Flow]*flowState{},
		bud:   &cacheBudget{limit: limit},
	}
}

// Stats returns a snapshot of the counters.
func (a *Agent) Stats() Stats { return a.stats }

// FlowCount returns the number of tracked flows.
func (a *Agent) FlowCount() int { return len(a.flows) }

// SharedCacheBytes returns the retransmission-cache bytes held across
// every tracked flow — the quantity bounded by SharedCacheBudgetBytes.
func (a *Agent) SharedCacheBytes() int { return a.bud.used }

// DebtBytes returns the fast-ACK debt [seq_TCP, seq_fack) summed across
// every tracked flow. O(1): maintained as a running counter at flow state
// transitions (accountFlow), not by scanning the flow table.
func (a *Agent) DebtBytes() int64 { return a.bud.debtTotal }

// UndrainedBypassedFlows counts flows sitting in Bypass or Draining that
// still carry debt — after a drain window, a healthy agent reads zero.
// O(1), like DebtBytes.
func (a *Agent) UndrainedBypassedFlows() int { return a.bud.undrained }

// accountFlow folds a flow's debt and undrained status into the running
// agent-wide counters. Called after every mutation that can move
// seq_TCP/seq_fack or the guard state; idempotent.
func (a *Agent) accountFlow(f *flowState) {
	d := int64(f.debtBytes())
	if d != f.acctDebt {
		a.bud.debtTotal += d - f.acctDebt
		f.acctDebt = d
	}
	und := (f.gstate == GuardBypass || f.gstate == GuardDraining) && d > 0
	if und != f.acctUndrained {
		if und {
			a.bud.undrained++
		} else {
			a.bud.undrained--
		}
		f.acctUndrained = und
	}
}

// finishFlow closes out a handler's work on a flow: running counters, then
// structural invariants.
func (a *Agent) finishFlow(f *flowState) {
	a.accountFlow(f)
	a.checkFlow(f)
}

// removeFlow releases a flow's packets to the shared accounting and pool,
// unwinds its running-counter contributions, and deletes it.
func (a *Agent) removeFlow(key packet.Flow, f *flowState) {
	f.dropPackets(false)
	a.bud.debtTotal -= f.acctDebt
	if f.acctUndrained {
		a.bud.undrained--
	}
	delete(a.flows, key)
}

// begin resets the scratch inject slices at an agent entry point.
func (a *Agent) begin() {
	a.sndScratch = a.sndScratch[:0]
	a.cliScratch = a.cliScratch[:0]
}

func (a *Agent) emitSender(disp *Disposition, d *packet.Datagram) {
	a.sndScratch = append(a.sndScratch, d)
	disp.ToSender = a.sndScratch
}

func (a *Agent) emitClient(disp *Disposition, d *packet.Datagram) {
	a.cliScratch = append(a.cliScratch, d)
	disp.ToClient = a.cliScratch
}

// clone makes a pooled deep copy of a datagram for injection.
func (a *Agent) clone(d *packet.Datagram) *packet.Datagram { return a.bud.pool.clone(d) }

// Recycle returns a datagram the caller has finished with to the agent's
// pool. Only datagrams the agent handed out (fast ACKs, hole dup-ACKs,
// window updates, retransmit clones) may be recycled, and only once the
// caller holds no further reference. Callers that never recycle are
// correct too — unreturned datagrams are simply garbage collected.
func (a *Agent) Recycle(d *packet.Datagram) { a.bud.pool.put(d) }

// flowFor returns (creating if needed) state for the downlink flow key.
func (a *Agent) flowFor(key packet.Flow) *flowState {
	f, ok := a.flows[key]
	if !ok {
		f = &flowState{flow: key, clientWScale: -1, bud: a.bud, vouchNeedsCache: !a.cfg.DisableCache}
		a.flows[key] = f
		a.stats.FlowsTracked++
	}
	return f
}

// HandleDownlink processes a packet travelling wired -> wireless (TCP
// sender to client). It implements the four §5.4 data-flow cases.
func (a *Agent) HandleDownlink(d *packet.Datagram) Disposition {
	if d.TCP == nil {
		return forwardOnly
	}
	a.begin()
	t := d.TCP
	key := d.Flow()

	// Handshake: seed the pointers. A SYN on an already-tracked 5-tuple is
	// a new connection incarnation: any cached segments, q_seq entries,
	// holes, or guard verdicts from the previous one would poison the new
	// stream, so they are discarded.
	if t.HasFlag(packet.FlagSYN) {
		f := a.flowFor(key)
		f.resetForNewConnection()
		f.initAt(t.Seq + 1)
		a.accountFlow(f)
		return forwardOnly
	}
	if t.HasFlag(packet.FlagRST) {
		if f, ok := a.flows[key]; ok {
			switch {
			case f.debtBytes() == 0:
				a.removeFlow(key, f)
			case f.gstate < GuardBypass:
				// The flow still carries fast-ACK debt: the sender believes
				// [seq_TCP, seq_fack) delivered and will never resend it. If
				// the RST is spurious (or injected), dropping the cache now
				// would strand the client; drain first, and let Sweep's
				// DrainExpiry reap the state if the connection really died.
				a.guardTrip(f, GuardReasonRST)
			}
		}
		return forwardOnly
	}
	if d.PayloadLen == 0 {
		return forwardOnly // bare ACK (e.g. handshake completion)
	}

	f := a.flowFor(key)
	f.lastFastAckAt = a.now()
	f.sawData = true
	if !f.initialized {
		f.initAt(t.Seq) // mid-flow adoption
	}

	seqIn := t.Seq
	end := seqIn + uint32(d.PayloadLen)

	if a.bypassed(f) {
		// Pure forwarding. Only seq_high keeps following the stream (it
		// bounds the wild-ACK check and roam export); nothing is cached
		// and no state machine runs.
		if f.gstate != GuardPassThrough && seqspace.LT(f.seqHigh, end) {
			f.seqHigh = end
		}
		a.finishFlow(f)
		return forwardOnly
	}

	disp := Disposition{Forward: true}

	switch {
	case seqspace.LT(seqIn, f.seqFack):
		// (i) Spurious retransmission: already fast-ACKed. Drop — but
		// re-ACK, the way the client itself would answer a duplicate
		// segment. The retransmission means the sender missed the original
		// fast ACK (ACKs get lost too); if the agent just ate the retry the
		// sender would RTO-loop forever on data the client already holds.
		a.stats.SpuriousDrops++
		a.stats.SpuriousReacks++
		reack := Disposition{Forward: false}
		a.emitSender(&reack, a.buildAck(f, f.seqFack))
		a.finishFlow(f)
		return reack

	case seqspace.LT(seqIn, f.seqExp):
		// (ii) End-to-end retransmission of data the AP has seen but the
		// client has not acknowledged at the 802.11 layer. Forward with
		// priority elevation.
		a.stats.ElevatedForwards++
		disp.Elevate = true
		a.cacheInsert(f, d)
		a.finishFlow(f)
		return disp

	case seqIn == f.seqExp:
		// (iii) In order: cache, forward, advance expectations.
		a.cacheInsert(f, d)
		f.advanceExp(end)
		f.seqHigh = seqspace.Max(f.seqHigh, end)
		a.finishFlow(f)
		return disp

	default:
		// (iv) seqIn > seqExp: a queue upstream dropped packets. Record
		// the hole, emulate the client's duplicate ACK (with SACK when
		// supported) so the sender repairs it early (§5.5.3), then treat
		// the packet as (iii).
		if seqIn-f.seqExp > a.cfg.Guard.MaxSeqJump {
			// A hole this wide is not congestion, it is a mangled header.
			// Forward the packet untouched — adopting the garbage sequence
			// into the holes vector or the cache would corrupt the flow.
			a.guardSoftAnomaly(f, GuardReasonSeqJump)
			a.finishFlow(f)
			return forwardOnly
		}
		a.stats.HolesDetected++
		f.addAbove(seqIn, end)
		f.seqHigh = seqspace.Max(f.seqHigh, end)
		dup := a.buildAck(f, f.seqExp)
		if f.clientSACKOK || f.clientWScale < 0 {
			dup.TCP.SACK = append(dup.TCP.SACK, packet.SACKBlock{Left: seqIn, Right: end})
		}
		a.stats.HoleDupAcksSent++
		a.emitSender(&disp, dup)
		a.cacheInsert(f, d)
		a.finishFlow(f)
		return disp
	}
}

func (a *Agent) cacheInsert(f *flowState, d *packet.Datagram) {
	if a.cfg.DisableCache {
		return
	}
	if ev := f.cacheInsert(d, a.cfg.CacheLimitBytes); ev > 0 {
		a.stats.CacheEvictions++
		obsm.cacheEvictions.Inc()
	}
	if ev, overrun := a.bud.reclaim(f); ev > 0 || overrun {
		if ev > 0 {
			a.stats.SharedCacheEvictions += int64(ev)
			obsm.sharedEvictions.Add(int64(ev))
		}
		if overrun {
			// Every byte the budget could reclaim across all flows is
			// vouched debt: the shared cache is thrashing. Trip the
			// inserting flow — bypassing it trims its cache to exactly its
			// debt and stops it growing the pressure.
			a.stats.SharedBudgetOverruns++
			obsm.sharedOverruns.Inc()
			f.evictBlocked = true
		}
	}
	if f.evictBlocked {
		// The limit wanted to evict vouched-for bytes: the cache is
		// thrashing against the debt range. Safety beats memory — the
		// eviction was refused — but a flow in this regime must stop
		// growing the debt.
		f.evictBlocked = false
		a.guardTrip(f, GuardReasonCacheThrash)
	}
}

// HandleWirelessAck reports link-layer fate for a downlink data packet:
// ok=true when the block ACK covered it (the 802.11 ACK of §5.2), ok=false
// when the MAC dropped it after exhausting retries.
func (a *Agent) HandleWirelessAck(d *packet.Datagram, ok bool) Disposition {
	a.begin()
	var disp Disposition
	if f := a.feedbackEvent(d, ok, &disp); f != nil {
		a.drainFastAck(f, &disp)
		a.finishFlow(f)
	}
	return disp
}

// HandleWirelessAckBatch processes one wireless feedback event covering
// many segments — a block ACK spanning an A-MPDU, or a transmit-completion
// batch spanning flows — in one agent entry. Per-segment bookkeeping is
// identical to calling HandleWirelessAck per segment; the difference is
// that each touched flow drains its contiguous run once at the end, so a
// flow whose segments were interleaved in the batch emits one coalesced
// fast ACK instead of one per re-entry. Cache re-drives for MAC-dropped
// segments are emitted inline, in batch order.
func (a *Agent) HandleWirelessAckBatch(evs []SegFate) Disposition {
	a.begin()
	var disp Disposition
	for i := range evs {
		if f := a.feedbackEvent(evs[i].Dgram, evs[i].OK, &disp); f != nil && !f.inBatch {
			f.inBatch = true
			a.batch = append(a.batch, f)
		}
	}
	for _, f := range a.batch {
		f.inBatch = false
		if f.gstate < GuardBypass { // guard may have tripped later in the batch
			a.drainFastAck(f, &disp)
		}
		a.finishFlow(f)
	}
	a.batch = a.batch[:0]
	return disp
}

// feedbackEvent applies one segment's link-layer fate: guard ticks, cache
// re-drives for MAC drops (into disp), wild-feedback rejection, and the
// q_seq enqueue. It returns the flow when a drain pass is still owed, nil
// when the event was fully handled.
func (a *Agent) feedbackEvent(d *packet.Datagram, ok bool, disp *Disposition) *flowState {
	if d == nil || d.TCP == nil || d.PayloadLen == 0 {
		return nil
	}
	f, tracked := a.flows[d.Flow()]
	if !tracked || !f.initialized || !f.sawData {
		return nil
	}
	// No fast ACKs are generated in bypass, but a MAC drop inside the debt
	// range of a flow that was already bypassed is still the agent's to
	// repair.
	owed := !ok && (f.gstate == GuardBypass || f.gstate == GuardDraining) && seqspace.LT(d.TCP.Seq, f.seqFack)
	if a.bypassed(f) && !owed {
		return nil
	}
	if !ok {
		// The MAC gave up on this MPDU. Re-drive it from the cache so the
		// transfer continues without waiting for the sender's RTO; if the
		// link stays bad, no fast ACKs advance and the sender times out,
		// which is the desired §5.5.1 fallback.
		if a.redrive(disp, f, d.TCP.Seq) {
			a.stats.WirelessRedrives++
		}
		return nil
	}

	if end := d.TCP.Seq + uint32(d.PayloadLen); seqspace.LT(f.seqExp, end) {
		// Feedback for bytes that never crossed the wire: the radio cannot
		// have transmitted them, so the report is garbage (mangled header,
		// stale feedback from a prior connection). Folding it in would
		// fast-ACK data the agent does not hold.
		a.guardSoftAnomaly(f, GuardReasonWildAck)
		a.finishFlow(f)
		return nil
	}
	f.enqueueAcked(d.TCP.Seq, d.PayloadLen)
	return f
}

// drainFastAck advances the fast-ack point over the contiguous q_seq run
// and emits one coalesced cumulative fast ACK if it moved.
func (a *Agent) drainFastAck(f *flowState, disp *Disposition) {
	fackBefore := f.seqFack
	if newFack, segs := f.drainContiguous(); segs > 0 {
		// One cumulative fast ACK covers the whole contiguous run (the
		// production agent coalesces; the sender's byte-counting cwnd
		// growth is unaffected).
		fa := a.buildAck(f, f.seqFack)
		a.stats.FastAcksSent++
		obsm.fastAcksSent.Inc()
		obsm.ampduBytes.Observe(int64(newFack - fackBefore))
		obsm.ampduSegs.Observe(int64(segs))
		f.lastFastAckAt = a.now()
		a.emitSender(disp, fa)
	}
}

// HandleUplink processes a packet travelling wireless -> wired (client to
// sender). A client's pure ACK takes one walk in every guard state; the
// state decides what the walk may do (see below).
func (a *Agent) HandleUplink(d *packet.Datagram) Disposition {
	if d.TCP == nil {
		return forwardOnly
	}
	a.begin()
	t := d.TCP
	// The downlink flow key is the reverse of this packet's flow.
	key := d.Flow().Reverse()
	f, tracked := a.flows[key]

	if t.HasFlag(packet.FlagSYN | packet.FlagACK) {
		// Client's half of the handshake: learn its window scaling and
		// SACK capability.
		f = a.flowFor(key)
		f.clientWScale = max(t.WindowScale, 0)
		f.clientSACKOK = t.SACKPermitted
		f.clientWindow = int(t.Window) << f.wscale()
		return forwardOnly
	}
	if !tracked || !f.initialized || t.HasFlag(packet.FlagRST) || t.HasFlag(packet.FlagFIN) || d.PayloadLen > 0 {
		return forwardOnly
	}
	if !f.sawData {
		// This connection incarnation has carried no downlink payload —
		// the reverse direction of an uplink-dominant transfer. The agent
		// never vouched for anything, so the client's ACK stream must
		// reach the sender untouched: suppressing it would strangle the
		// client's own upload. Window advertisements are still learned
		// passively so the first fast ACK after data does appear clamps
		// against fresh knowledge.
		f.clientWindow = int(t.Window) << f.wscale()
		return forwardOnly
	}
	if !t.HasFlag(packet.FlagACK) || (a.bypassed(f) && f.gstate == GuardPassThrough) {
		return forwardOnly
	}

	// A pure client ACK. An Active or Suspect flow impersonates the
	// client's receiver: it suppresses the ACK, repairs any duplicate ACK
	// from the cache, feeds those repairs to the storm detector, reopens a
	// clamped window and heals lost 802.11 feedback. A Bypass or Draining
	// flow forwards every ACK and only makes good on its debt [seq_TCP,
	// seq_fack): it repairs duplicate ACKs below seq_fack, moves to
	// Draining on client progress, re-drives a stalled debt head and
	// detaches into PassThrough once the debt is repaid.
	active := f.gstate < GuardBypass
	now := a.now()
	if !active {
		f.lastFastAckAt = now // drain liveness for Sweep
	}
	f.clientWindow = int(t.Window) << f.wscale()

	ack := t.Ack
	if seqspace.LT(f.seqHigh, ack) {
		// Cumulative ACK beyond anything the sender has transmitted:
		// header corruption. Forward it untouched — folding it into
		// seq_TCP would poison the window and debt accounting.
		if active {
			a.guardSoftAnomaly(f, GuardReasonWildAck)
			a.finishFlow(f)
		}
		return forwardOnly
	}
	disp := Disposition{Forward: !active || a.cfg.DisableSuppression}

	switch {
	case seqspace.LT(f.seqTCP, ack):
		wasZero := f.zeroWindowSent
		f.seqTCP = ack
		f.cachePurge(ack)
		f.dupAcksFromClient = 0
		f.lastClientAck = ack
		f.debtProgressAt = now
		f.ackProgressAt = now
		f.stormCount = 0 // forward progress: not a retransmit storm
		if f.gstate == GuardBypass {
			f.gstate = GuardDraining
		}
		if active && wasZero && f.advertisedWindow(a.cfg.FlowQueueBudget) >= lowWindowBytes {
			// The sender was window-limited on our clamped advertisement;
			// release it now that the client drained (§5.5.2).
			up := a.buildAck(f, f.seqFack)
			a.stats.WindowUpdates++
			obsm.windowUpdates.Inc()
			a.emitSender(&disp, up)
		}

	case ack == f.lastClientAck:
		f.dupAcksFromClient++
		if active && seqspace.LT(ack, f.seqFack) {
			// We vouched for this data with a fast ACK and the client
			// disagrees: an inaccurate 802.11 ACK (§5.7).
			a.stats.BadHints++
		}
		// A bypassed flow repairs only below seq_fack: the sender believes
		// those bytes delivered and will never resend them.
		if f.dupAcksFromClient >= a.cfg.DupAckThreshold && (active || seqspace.LT(ack, f.seqFack)) {
			f.dupAcksFromClient = 0
			if a.cfg.DisableCache {
				// Ablation: no cache, so the sender must repair — let its
				// dup-ACK through even under suppression.
				disp.Forward = true
			} else if f.rtxDue(ack, now, a.cfg.RtxGuard) {
				if n := a.retransmitFromCache(&disp, f, ack, t.SACK); active {
					a.guardNoteRetransmits(f, n)
				}
			}
		}
	default:
		f.lastClientAck = ack
		if !active {
			f.dupAcksFromClient = 0
		}
	}

	if !active {
		// Drain belt: if the debt head stops moving (e.g. the local repair
		// itself was lost over the air), proactively redrive it, once per
		// stall timeout.
		if f.debtBytes() > 0 && !a.cfg.DisableCache &&
			now-f.debtProgressAt > a.cfg.Guard.DebtStallTimeout && f.rtxDue(f.seqTCP, now, a.cfg.RtxGuard) {
			f.debtProgressAt = now
			a.retransmitFromCache(&disp, f, f.seqTCP, nil)
		}
		if f.debtBytes() == 0 {
			a.guardDetach(f)
		}
	} else if seqspace.LT(f.seqFack, ack) {
		// The client acknowledged beyond our fast-ack point. Forward rather
		// than lose information — and treat the cumulative ACK as ground
		// truth for delivery: every byte below it reached the client, so the
		// fast-ack point advances even though the 802.11 feedback for those
		// segments never arrived. Without this, one lost block-ACK report
		// wedges seq_fack forever: fast ACKs stop, q_seq grows without
		// bound, and the queue-budget clamp (budget − (seq_high − seq_fack))
		// goes negative so every generated ACK advertises a zero window.
		disp.Forward = true
		heal := ack
		if seqspace.LT(f.seqExp, heal) {
			heal = f.seqExp // never past the wire frontier
		}
		if seqspace.LT(f.seqFack, heal) {
			f.seqFack = heal
			f.drainContiguous() // ride over q_seq entries the heal reconnected
			a.stats.FeedbackHeals++
		}
	} else if !a.cfg.DisableSuppression {
		a.stats.ClientAcksDropped++
		obsm.clientAcksDropped.Inc()
	}
	a.finishFlow(f)
	return disp
}

// redrive re-injects the cached segment at seq toward the client and
// reports whether it was cached. Every cache re-drive — a MAC drop's, a
// duplicate ACK's, the drain belt's — counts its hit or miss here.
func (a *Agent) redrive(disp *Disposition, f *flowState, seq uint32) bool {
	c := f.cacheLookup(seq)
	if c == nil {
		obsm.cacheMisses.Inc()
		return false
	}
	obsm.cacheHits.Inc()
	a.emitClient(disp, a.clone(c))
	return true
}

// retransmitFromCache appends clones of cached segments the client is
// missing to disp.ToClient: the segment at ack, plus any holes implied by
// SACK blocks, bounded per invocation so one duplicate ACK cannot flood
// the air. Returns how many segments were queued.
func (a *Agent) retransmitFromCache(disp *Disposition, f *flowState, ack uint32, sack []packet.SACKBlock) (queued int) {
	const maxPerEvent = 16
	if a.redrive(disp, f, ack) {
		queued++
	}
	// SACK-based: retransmit cached data between ack and the lowest SACK
	// edge that is not covered by any block.
sacked:
	for _, blk := range sack {
		for i := 0; i < f.cache.Len(); i++ {
			c := f.cache.At(i)
			if !(seqspace.LT(c.Seq, blk.Left) && seqspace.LT(ack, segEnd(c))) {
				continue
			}
			if queued >= maxPerEvent {
				break sacked
			}
			if covered(c.Seq, sack) || c.Seq == ack {
				continue
			}
			a.emitClient(disp, a.clone(c.V))
			queued++
		}
	}
	a.stats.LocalRetransmits += int64(queued)
	obsm.localRetransmits.Add(int64(queued))
	return queued
}

func covered(seq uint32, sack []packet.SACKBlock) bool {
	for _, b := range sack {
		if seqspace.LEQ(b.Left, seq) && seqspace.LT(seq, b.Right) {
			return true
		}
	}
	return false
}

// buildAck constructs a TCP ACK from the client toward the sender with the
// clamped advertised window rx'_win = rx_win − out_bytes. The datagram
// comes from the agent's pool; field-for-field it matches what
// packet.NewTCPDatagram would build.
func (a *Agent) buildAck(f *flowState, ackNo uint32) *packet.Datagram {
	// The generated packet impersonates the client: source is the
	// downlink flow's destination.
	d := a.bud.pool.get()
	d.IP = packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: f.flow.Dst.Addr, Dst: f.flow.Src.Addr}
	d.TCP.SrcPort = f.flow.Dst.Port
	d.TCP.DstPort = f.flow.Src.Port
	d.TCP.Ack = ackNo
	d.TCP.Flags = packet.FlagACK
	advBytes := f.advertisedWindow(a.cfg.FlowQueueBudget)
	obsm.advWindow.Observe(int64(advBytes))
	adv := advBytes >> f.wscale()
	if adv > 65535 {
		adv = 65535
	}
	// Anything below a couple of segments stalls the sender as surely as
	// zero; remember it so the next client-ACK progress triggers a window
	// update toward the sender.
	f.zeroWindowSent = advBytes < lowWindowBytes
	d.TCP.Window = uint16(adv)
	a.checkFastAck(f, ackNo, advBytes)
	return d
}

// lowWindowBytes is the advertised-window level below which the sender is
// effectively stalled and must be woken by a window update.
const lowWindowBytes = 3 * 1448

// Sweep drops state for flows idle longer than the configured expiry and
// returns how many were removed. A flow still carrying fast-ACK debt is
// not discarded at IdleExpiry — its cache is the only repair source for
// bytes the agent vouched for — it is bypassed (so the client's next real
// ACKs drain it) and only reaped after a further Guard.DrainExpiry.
func (a *Agent) Sweep() int {
	now := a.now()
	removed := 0
	for key, f := range a.flows {
		idle := now - f.lastFastAckAt
		if idle <= a.cfg.IdleExpiry {
			continue
		}
		if f.debtBytes() > 0 {
			if f.gstate < GuardBypass {
				a.guardTrip(f, GuardReasonIdleDebt)
			}
			if idle <= a.cfg.IdleExpiry+a.cfg.Guard.DrainExpiry {
				continue
			}
		}
		a.removeFlow(key, f)
		removed++
	}
	return removed
}

// ExportedFlow serialises a flow's state for roaming transfer (§5.5.4);
// the roam-to AP imports it so local retransmissions and window
// accounting continue seamlessly.
type ExportedFlow struct {
	Flow    packet.Flow
	SeqHigh uint32
	SeqExp  uint32
	SeqFack uint32
	SeqTCP  uint32
	// Client-side window knowledge: without it the roam-to agent would
	// advertise rx'_win = 0 and strand the sender.
	ClientWindow int
	ClientWScale int
	ClientSACKOK bool
	// SawData records whether the incarnation carried downlink payload: a
	// flow tracked only through its handshake (the reverse direction of an
	// uplink transfer) must stay dormant on the roam-to AP too.
	SawData bool
	Cache   []*packet.Datagram
	// Guard state travels with the flow: a bypassed flow keeps draining on
	// the roam-to AP instead of being resurrected into full FastACK.
	Guard        GuardState
	BypassAt     sim.Time
	DebtAtBypass int64
}

// Drop removes a flow's state (after exporting it to a roam-to AP).
func (a *Agent) Drop(key packet.Flow) {
	if f, ok := a.flows[key]; ok {
		a.removeFlow(key, f)
	}
}

// Export returns the state for a flow, or false if untracked. The cache
// copies are plain heap clones — they cross agents, so they must not
// alias this agent's pool.
func (a *Agent) Export(key packet.Flow) (ExportedFlow, bool) {
	f, ok := a.flows[key]
	if !ok {
		return ExportedFlow{}, false
	}
	ex := ExportedFlow{
		Flow: key, SeqHigh: f.seqHigh, SeqExp: f.seqExp,
		SeqFack: f.seqFack, SeqTCP: f.seqTCP,
		ClientWindow: f.clientWindow, ClientWScale: f.clientWScale,
		ClientSACKOK: f.clientSACKOK, SawData: f.sawData,
		Guard: f.gstate, BypassAt: f.bypassAt, DebtAtBypass: f.debtAtBypass,
	}
	for i := 0; i < f.cache.Len(); i++ {
		ex.Cache = append(ex.Cache, f.cache.At(i).V.Clone())
	}
	return ex, true
}

// Import installs exported state on this agent (the roam-to AP) and
// returns a resynchronisation ACK the caller must forward to the TCP
// sender: it re-advertises the window from the new AP, so a sender
// stalled on the roam-from AP's last (possibly zero) advertisement
// resumes immediately. For a flow that arrives bypassed or draining no
// resync ACK is returned (nil): a bypassed flow no longer impersonates
// the client, and the client's own ACKs reach the sender unsuppressed.
func (a *Agent) Import(ex ExportedFlow) *packet.Datagram {
	f := a.flowFor(ex.Flow)
	f.initialized = true
	f.sawData = ex.SawData
	f.seqHigh = ex.SeqHigh
	f.seqExp = ex.SeqExp
	f.seqFack = ex.SeqFack
	f.seqTCP = ex.SeqTCP
	f.clientWindow = ex.ClientWindow
	f.clientWScale = ex.ClientWScale
	f.clientSACKOK = ex.ClientSACKOK
	f.lastFastAckAt = a.now()
	f.gstate = ex.Guard
	f.bypassAt = ex.BypassAt
	f.debtAtBypass = ex.DebtAtBypass
	// Detector state restarts cleanly on the new AP: the roam itself is
	// not evidence of pathology.
	f.debtProgressAt = a.now()
	f.ackProgressAt = a.now()
	f.stormCount = 0
	for _, d := range ex.Cache {
		f.cacheInsert(d, a.cfg.CacheLimitBytes)
	}
	if ev, _ := a.bud.reclaim(f); ev > 0 {
		a.stats.SharedCacheEvictions += int64(ev)
		obsm.sharedEvictions.Add(int64(ev))
	}
	a.accountFlow(f)
	if f.gstate >= GuardBypass || !ex.SawData {
		// A bypassed flow no longer impersonates the client; a dormant
		// (never-saw-data) flow never started. Neither gets a resync ACK.
		a.checkFlow(f)
		return nil
	}
	return a.buildAck(f, f.seqFack)
}

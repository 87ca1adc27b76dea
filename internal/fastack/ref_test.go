package fastack

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// refHandleUplink is the agent's client-ACK handling as it stood before the
// guard states shared one walk: HandleUplink for Active and Suspect flows,
// refBypassUplinkAck once a flow is bypassed, each with its own copy of the
// seq_TCP advance, the cache purge, the duplicate-ACK count and the
// RtxGuard rate limit. Copied verbatim with the deleted knobs at their
// production values (MarkAllFlows on, Guard.Disable off); it calls its own
// copies of the guard tick and the cache re-drive, so the shared helpers
// those became are held to it too. TestUplinkMatchesReference holds
// HandleUplink to it.
func refHandleUplink(a *Agent, d *packet.Datagram) Disposition {
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
		f.clientWScale = 0
		if t.WindowScale >= 0 {
			f.clientWScale = t.WindowScale
		}
		f.clientSACKOK = t.SACKPermitted
		f.clientWindow = int(t.Window) << f.clientWScale
		return forwardOnly
	}
	if !tracked || !f.initialized || t.HasFlag(packet.FlagRST) || t.HasFlag(packet.FlagFIN) || d.PayloadLen > 0 {
		return forwardOnly
	}
	if !f.sawData {
		if wscale := f.clientWScale; wscale >= 0 {
			f.clientWindow = int(t.Window) << wscale
		} else {
			f.clientWindow = int(t.Window)
		}
		return forwardOnly
	}
	if !t.HasFlag(packet.FlagACK) {
		return forwardOnly
	}

	if f.gstate >= GuardBypass {
		return refBypassUplinkAck(a, f, t)
	}
	refGuardTick(a, f)
	if f.gstate >= GuardBypass { // stalled debt tripped just now
		return refBypassUplinkAck(a, f, t)
	}

	// Pure TCP ACK from the client.
	wscale := f.clientWScale
	if wscale < 0 {
		wscale = 0
	}
	f.clientWindow = int(t.Window) << wscale

	ack := t.Ack
	if seqspace.LT(f.seqHigh, ack) {
		a.guardSoftAnomaly(f, GuardReasonWildAck)
		a.finishFlow(f)
		return forwardOnly
	}
	var disp Disposition // suppress by default (Forward=false)
	if a.cfg.DisableSuppression {
		disp.Forward = true
	} else {
		a.stats.ClientAcksDropped++
		obsm.clientAcksDropped.Inc()
	}

	switch {
	case seqspace.LT(f.seqTCP, ack):
		wasZero := f.zeroWindowSent
		f.seqTCP = ack
		f.cachePurge(ack)
		f.dupAcksFromClient = 0
		f.lastClientAck = ack
		f.debtProgressAt = a.now()
		f.ackProgressAt = a.now()
		f.stormCount = 0 // forward progress: not a retransmit storm
		if wasZero && f.advertisedWindow(a.cfg.FlowQueueBudget) >= lowWindowBytes {
			up := a.buildAck(f, f.seqFack)
			a.stats.WindowUpdates++
			obsm.windowUpdates.Inc()
			a.emitSender(&disp, up)
		}

	case ack == f.lastClientAck:
		f.dupAcksFromClient++
		if seqspace.LT(ack, f.seqFack) {
			a.stats.BadHints++
		}
		if f.dupAcksFromClient >= a.cfg.DupAckThreshold {
			f.dupAcksFromClient = 0
			if a.cfg.DisableCache {
				disp.Forward = true
			} else {
				now := a.now()
				if ack != f.lastRtxSeq || now-f.lastRtxAt >= a.cfg.RtxGuard {
					f.lastRtxSeq = ack
					f.lastRtxAt = now
					n := refRetransmitFromCache(a, &disp, f, ack, t.SACK)
					a.guardNoteRetransmits(f, n)
				}
			}
		}
	default:
		f.lastClientAck = ack
	}

	if seqspace.LT(f.seqFack, ack) {
		if !a.cfg.DisableSuppression {
			a.stats.ClientAcksDropped--
			obsm.clientAcksDropped.Add(-1)
		}
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
	}
	a.finishFlow(f)
	return disp
}

// refBypassUplinkAck is the parent's bypassUplinkAck.
func refBypassUplinkAck(a *Agent, f *flowState, t *packet.TCP) Disposition {
	disp := forwardOnly
	if f.gstate == GuardPassThrough {
		return disp
	}
	now := a.now()
	f.lastFastAckAt = now // drain liveness for Sweep
	wscale := f.clientWScale
	if wscale < 0 {
		wscale = 0
	}
	f.clientWindow = int(t.Window) << wscale

	ack := t.Ack
	if seqspace.LT(f.seqHigh, ack) {
		return disp // wild ACK: forward, but never learn from it
	}
	switch {
	case seqspace.LT(f.seqTCP, ack):
		f.seqTCP = ack
		f.cachePurge(ack)
		f.dupAcksFromClient = 0
		f.lastClientAck = ack
		f.debtProgressAt = now
		if f.gstate == GuardBypass {
			f.gstate = GuardDraining
		}
	case ack == f.lastClientAck:
		f.dupAcksFromClient++
		if f.dupAcksFromClient >= a.cfg.DupAckThreshold &&
			seqspace.LT(ack, f.seqFack) && !a.cfg.DisableCache {
			f.dupAcksFromClient = 0
			if ack != f.lastRtxSeq || now-f.lastRtxAt >= a.cfg.RtxGuard {
				f.lastRtxSeq = ack
				f.lastRtxAt = now
				refRetransmitFromCache(a, &disp, f, ack, t.SACK)
			}
		}
	default:
		f.lastClientAck = ack
		f.dupAcksFromClient = 0
	}

	// Drain belt: if the debt head stops moving (e.g. the local repair
	// itself was lost over the air), proactively redrive it.
	if f.debtBytes() > 0 && !a.cfg.DisableCache &&
		now-f.debtProgressAt > a.cfg.Guard.DebtStallTimeout {
		if f.seqTCP != f.lastRtxSeq || now-f.lastRtxAt >= a.cfg.RtxGuard {
			f.lastRtxSeq = f.seqTCP
			f.lastRtxAt = now
			f.debtProgressAt = now // one belt redrive per stall timeout
			refRetransmitFromCache(a, &disp, f, f.seqTCP, nil)
		}
	}
	if f.debtBytes() == 0 {
		a.guardDetach(f)
	}
	a.finishFlow(f)
	return disp
}

// refGuardTick is the parent's guardTick.
func refGuardTick(a *Agent, f *flowState) {
	if f.gstate >= GuardBypass {
		return
	}
	now := a.now()
	if f.gstate == GuardSuspect && now-f.suspectAt > a.cfg.Guard.SuspectWindow {
		f.gstate = GuardActive
	}
	if f.debtBytes() == 0 {
		f.debtProgressAt = now
	} else if now-f.debtProgressAt > a.cfg.Guard.DebtStallTimeout {
		a.guardTrip(f, GuardReasonDebtStall)
	}
}

// refRetransmitFromCache is the parent's retransmitFromCache.
func refRetransmitFromCache(a *Agent, disp *Disposition, f *flowState, ack uint32, sack []packet.SACKBlock) int {
	const maxPerEvent = 16
	queued := 0
	if d := f.cacheLookup(ack); d != nil {
		obsm.cacheHits.Inc()
		a.stats.LocalRetransmits++
		obsm.localRetransmits.Inc()
		a.emitClient(disp, a.clone(d))
		queued++
	} else {
		obsm.cacheMisses.Inc()
	}
	for _, blk := range sack {
		for i := 0; i < f.cache.Len(); i++ {
			c := f.cache.At(i)
			if !(seqspace.LT(c.Seq, blk.Left) && seqspace.LT(ack, segEnd(c))) {
				continue
			}
			if queued >= maxPerEvent {
				return queued
			}
			if covered(c.Seq, sack) || c.Seq == ack {
				continue
			}
			a.stats.LocalRetransmits++
			obsm.localRetransmits.Inc()
			a.emitClient(disp, a.clone(c.V))
			queued++
		}
	}
	return queued
}

// obsCounters are the fastack obs counters an agent call can move; the
// differential test compares what each call adds to them.
var obsCounters = []*obs.Counter{
	obsm.fastAcksSent, obsm.clientAcksDropped, obsm.cacheHits, obsm.cacheMisses,
	obsm.cacheEvictions, obsm.sharedEvictions, obsm.sharedOverruns,
	obsm.localRetransmits, obsm.windowUpdates, obsm.guardSuspects,
	obsm.guardBypasses, obsm.guardDrained, obsm.invariantViolations,
}

// obsDelta runs fn and returns what it added to each of obsCounters.
func obsDelta(fn func()) []int64 {
	before := make([]int64, len(obsCounters))
	for i, c := range obsCounters {
		before[i] = c.Value()
	}
	fn()
	for i, c := range obsCounters {
		before[i] = c.Value() - before[i]
	}
	return before
}

// diffFlow is one flow of a differential script: the sender's frontier,
// what it sent and skipped, and the client's cumulative ACK.
type diffFlow struct {
	srv, cli packet.Endpoint
	next     uint32
	sent     []uint32
	skipped  []uint32
	acked    uint32
	lastAck  uint32
	sack     []packet.SACKBlock
}

func (fl *diffFlow) key() packet.Flow {
	return packet.Flow{Proto: packet.ProtoTCP, Src: fl.srv, Dst: fl.cli}
}

func (fl *diffFlow) seg(seq uint32) *packet.Datagram {
	d := packet.NewTCPDatagram(fl.srv, fl.cli, segLen)
	d.TCP.Seq = seq
	d.TCP.Flags = packet.FlagACK | packet.FlagPSH
	return d
}

func (fl *diffFlow) ack(ack uint32, window uint16, sack []packet.SACKBlock) *packet.Datagram {
	d := packet.NewTCPDatagram(fl.cli, fl.srv, 0)
	d.TCP.Ack = ack
	d.TCP.Flags = packet.FlagACK
	d.TCP.Window = window
	d.TCP.SACK = sack
	return d
}

// diffConfig picks the seed's agent configuration: the guard thresholds
// small enough that storms, stalls and thrash happen inside a script, and
// every fifth seed one of the ablations or the queue-budget clamp.
func diffConfig(seed int64) Config {
	cfg := DefaultConfig()
	cfg.CheckInvariants = true
	cfg.Guard.StormThreshold = 4
	cfg.IdleExpiry = 3 * sim.Second
	cfg.Guard.DrainExpiry = 2 * sim.Second
	switch seed % 5 {
	case 1:
		cfg.DisableSuppression = true
	case 2:
		cfg.DisableCache = true
	case 3:
		cfg.FlowQueueBudget = 6 * segLen
	case 4:
		cfg.CacheLimitBytes = 8 * segLen
		cfg.SharedCacheBudgetBytes = 12 * segLen
	}
	return cfg
}

// TestUplinkMatchesReference drives two identically configured agents
// with the same random scripts — in-order, reordered, lost, retransmitted
// and mangled downlink segments; OK and dropped 802.11 feedback;
// progressing, duplicate, SACKed, stale, wild, wrapped and healing client
// ACKs; the clock stepped past RtxGuard, SuspectWindow and
// DebtStallTimeout; RSTs, restarts, sweeps and roams — one answering
// client ACKs with HandleUplink, the other with refHandleUplink. After
// every step the dispositions, Stats, each flow's Export and guard state,
// the debt, shared-cache and undrained aggregates, the violation log and
// what the step added to the fastack obs counters must be equal.
func TestUplinkMatchesReference(t *testing.T) {
	const seeds, steps = 400, 160
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := diffConfig(seed)
		hs := [2]*harness{newHarness(cfg), newHarness(cfg)}
		uplink := [2]func(*packet.Datagram) Disposition{
			hs[0].a.HandleUplink,
			func(d *packet.Datagram) Disposition { return refHandleUplink(hs[1].a, d) },
		}
		rng := rand.New(rand.NewSource(seed))
		var flows []*diffFlow
		for i := 0; i < 2; i++ {
			srv, cli := benchEPs(i)
			fl := &diffFlow{srv: srv, cli: cli, next: 1000, acked: 1000, lastAck: 1000}
			for _, h := range hs {
				benchHandshake(h.a, srv, cli)
			}
			flows = append(flows, fl)
		}
		var log []string
		for step := 0; step < steps; step++ {
			fl := flows[rng.Intn(len(flows))]
			op, call := diffOp(rng, hs[0].a, fl, cfg)
			log = append(log, op)
			var disp [2]string
			var delta [2][]int64
			for i, h := range hs {
				i, h := i, h
				delta[i] = obsDelta(func() { disp[i] = call(h, uplink[i]) })
			}
			if msg := diffAgents(hs[0].a, hs[1].a, flows); disp[0] != disp[1] || msg != "" ||
				!reflect.DeepEqual(delta[0], delta[1]) {
				if len(log) > 12 {
					log = log[len(log)-12:]
				}
				t.Fatalf("seed %d step %d: HandleUplink diverged from the reference\nlast ops:\n  %s\ndisposition: %s\n  reference: %s\nobs delta: %v\n reference: %v\n%s",
					seed, step, strings.Join(log, "\n  "), disp[0], disp[1], delta[0], delta[1], msg)
			}
		}
	}
}

// diffOp draws one script operation on fl, returning its description and a
// call that applies it to one harness (answering client ACKs with uplink)
// and renders the disposition. Draws read agent a's flow state only to aim
// ACKs; the call itself is the same for both agents.
func diffOp(rng *rand.Rand, a *Agent, fl *diffFlow, cfg Config) (string, func(*harness, func(*packet.Datagram) Disposition) string) {
	down := func(d *packet.Datagram) func(*harness, func(*packet.Datagram) Disposition) string {
		return func(h *harness, _ func(*packet.Datagram) Disposition) string {
			return dispString(h.a.HandleDownlink(d.Clone()))
		}
	}
	up := func(d *packet.Datagram) func(*harness, func(*packet.Datagram) Disposition) string {
		return func(_ *harness, uplink func(*packet.Datagram) Disposition) string {
			return dispString(uplink(d.Clone()))
		}
	}
	send := func(seq uint32) {
		fl.sent = append(fl.sent, seq)
		if len(fl.sent) > 24 {
			fl.sent = fl.sent[1:]
		}
	}
	st := a.flows[fl.key()]
	burst := func(d *packet.Datagram) func(*harness, func(*packet.Datagram) Disposition) string {
		return func(_ *harness, uplink func(*packet.Datagram) Disposition) string {
			var out []string
			for i := 0; i < 3; i++ {
				out = append(out, dispString(uplink(d.Clone())))
			}
			return strings.Join(out, " / ")
		}
	}
	if st != nil && (st.gstate == GuardBypass || st.gstate == GuardDraining) && rng.Intn(2) == 0 {
		// Uniform draws reach a bypassed flow still in debt rarely and
		// leave it soon: half the time, press on it with what its branch
		// of the walk handles — duplicate bursts a guard window apart, and
		// (rarely, as it strands the flow) seq_high wrapped half the space
		// so that a duplicate can sit at or above seq_fack.
		sack := []packet.SACKBlock{{Left: st.seqTCP + segLen, Right: st.seqTCP + 2*segLen}}
		switch k := rng.Intn(24); {
		case k < 8:
			return "clock +16ms", func(h *harness, _ func(*packet.Datagram) Disposition) string {
				h.now += 16 * sim.Millisecond
				return ""
			}
		case k < 20:
			return fmt.Sprintf("uplink ack=%d duplicate+sack x3", fl.lastAck), burst(fl.ack(fl.lastAck, 2048, sack))
		case k < 21:
			seq := st.seqHigh + 1<<31 - segLen
			return fmt.Sprintf("downlink %d wraps seq_high", seq), down(fl.seg(seq))
		default:
			ack := st.seqTCP + 1<<31 + uint32(rng.Intn(st.debtBytes()+1))
			fl.lastAck = ack
			return fmt.Sprintf("uplink ack=%d wrapped x3", ack), burst(fl.ack(ack, 2048, sack))
		}
	}
	window := uint16(4096)
	switch rng.Intn(10) {
	case 0:
		window = 16 // 2 KiB: the fast ACKs clamp to zero, progress re-opens
	case 1:
		window = 2048
	}
	switch op := rng.Intn(100); {
	case op < 22: // downlink, in order unless the window is full
		seq := fl.next
		if int32(fl.next-fl.acked) > 14*segLen {
			seq = fl.acked // the sender's RTO: retransmit the head
		} else {
			fl.next += segLen
		}
		send(seq)
		return fmt.Sprintf("downlink %d", seq), down(fl.seg(seq))
	case op < 26: // upstream loss: a segment skipped, the next one sent
		fl.skipped = append(fl.skipped, fl.next)
		seq := fl.next + segLen
		fl.next += 2 * segLen
		send(seq)
		return fmt.Sprintf("downlink %d after a loss", seq), down(fl.seg(seq))
	case op < 30: // a lost segment's retransmission arrives, out of order
		if len(fl.skipped) == 0 {
			return "noop", func(*harness, func(*packet.Datagram) Disposition) string { return "" }
		}
		i := rng.Intn(len(fl.skipped))
		seq := fl.skipped[i]
		fl.skipped = append(fl.skipped[:i], fl.skipped[i+1:]...)
		send(seq)
		return fmt.Sprintf("downlink %d refill", seq), down(fl.seg(seq))
	case op < 33: // an end-to-end retransmission of something already sent
		if len(fl.sent) == 0 {
			return "noop", func(*harness, func(*packet.Datagram) Disposition) string { return "" }
		}
		seq := fl.sent[rng.Intn(len(fl.sent))]
		return fmt.Sprintf("downlink %d again", seq), down(fl.seg(seq))
	case op < 36: // a mangled sequence: past MaxSeqJump, or half the space out
		seq := fl.next + 16<<20 + uint32(rng.Intn(4))*segLen
		if rng.Intn(2) == 0 {
			seq = fl.next + 1<<31 - uint32(rng.Intn(4))*segLen
		}
		return fmt.Sprintf("downlink %d mangled", seq), down(fl.seg(seq))
	case op < 52: // 802.11 feedback, delivered or dropped by the MAC
		if len(fl.sent) == 0 {
			return "noop", func(*harness, func(*packet.Datagram) Disposition) string { return "" }
		}
		seq := fl.sent[rng.Intn(len(fl.sent))]
		ok := rng.Intn(6) != 0
		d := fl.seg(seq)
		return fmt.Sprintf("80211ack %d ok=%v", seq, ok), func(h *harness, _ func(*packet.Datagram) Disposition) string {
			return dispString(h.a.HandleWirelessAck(d, ok))
		}
	case op < 82: // a client ACK, sometimes repeated back to back
		ack, kind := fl.lastAck, "duplicate"
		var sack []packet.SACKBlock
		switch k := rng.Intn(16); {
		case k < 4: // progress by a segment or two
			if span := int32(fl.next - fl.acked); span > 0 {
				ack = fl.acked + uint32(min(int(span), segLen*(1+rng.Intn(2))))
			}
			kind = "progress"
		case k < 5: // the client catches up with everything sent
			ack, kind = fl.next, "catch-up"
		case k < 10: // duplicate, SACKing something above the hole
			if rng.Intn(2) == 0 && int32(fl.next-ack) > 2*segLen {
				left := ack + segLen*uint32(1+rng.Intn(int(fl.next-ack)/segLen-1))
				sack = []packet.SACKBlock{{Left: left, Right: left + segLen}}
				kind = "duplicate+sack"
			}
		case k < 11: // stale
			ack, kind = fl.acked-uint32(1+rng.Intn(3))*segLen, "stale"
		case k < 12: // wild
			ack, kind = fl.next+100_000+uint32(rng.Intn(1000)), "wild"
		case k < 14: // half the sequence space out, by wrap
			ack, kind = fl.acked+1<<31+uint32(rng.Intn(3000)), "wrapped"
			sack = []packet.SACKBlock{{Left: fl.acked + segLen, Right: fl.acked + 2*segLen}}
		default: // healing: past the agent's fast-ack point, up to the frontier
			ack, kind = fl.next, "heal"
			if st != nil && seqspace.LT(st.seqFack, fl.next) {
				ack = st.seqFack + uint32(rng.Intn(int(fl.next-st.seqFack)+1))
			}
		}
		fl.lastAck = ack
		if seqspace.LT(fl.acked, ack) && seqspace.LEQ(ack, fl.next) {
			fl.acked = ack
		}
		ev := fmt.Sprintf("uplink ack=%d win=%d %s %v", ack, window, kind, sack)
		if rng.Intn(2) == 0 {
			return ev + " x3", burst(fl.ack(ack, window, sack))
		}
		return ev, up(fl.ack(ack, window, sack))
	case op < 86: // the client's data, FIN or a bare segment: not a pure ACK
		d := fl.ack(fl.lastAck, window, nil)
		switch rng.Intn(3) {
		case 0:
			d.PayloadLen = 100
		case 1:
			d.TCP.Flags |= packet.FlagFIN
		default:
			d.TCP.Flags = 0
		}
		return "uplink not a pure ack", up(d)
	case op < 94: // time: a few ms, an RtxGuard, a SuspectWindow or a debt stall
		dt := []sim.Time{sim.Millisecond, 5 * sim.Millisecond, 16 * sim.Millisecond,
			260 * sim.Millisecond, 1600 * sim.Millisecond}[rng.Intn(5)]
		return fmt.Sprintf("clock +%v", dt), func(h *harness, _ func(*packet.Datagram) Disposition) string {
			h.now += dt
			return ""
		}
	case op < 95: // sweep
		return "sweep", func(h *harness, _ func(*packet.Datagram) Disposition) string {
			return fmt.Sprint(h.a.Sweep())
		}
	case op < 96: // sender RST
		d := fl.seg(fl.next)
		d.PayloadLen = 0
		d.TCP.Flags = packet.FlagRST
		return "downlink RST", down(d)
	case op < 97: // a new incarnation: SYN, SYN-ACK
		iss := fl.next + 50_000
		fl.next, fl.acked, fl.lastAck, fl.sent, fl.skipped = iss+1, iss+1, iss+1, nil, nil
		return fmt.Sprintf("restart iss=%d", iss), func(h *harness, _ func(*packet.Datagram) Disposition) string {
			syn := packet.NewTCPDatagram(fl.srv, fl.cli, 0)
			syn.TCP.Seq = iss
			syn.TCP.Flags = packet.FlagSYN
			syn.TCP.WindowScale = 7
			h.a.HandleDownlink(syn)
			synAck := packet.NewTCPDatagram(fl.cli, fl.srv, 0)
			synAck.TCP.Flags = packet.FlagSYN | packet.FlagACK
			synAck.TCP.Window = 4096
			synAck.TCP.WindowScale = 7
			synAck.TCP.SACKPermitted = true
			return dispString(h.a.HandleUplink(synAck))
		}
	default: // a roam out and back: export, drop, import
		return "roam", func(h *harness, _ func(*packet.Datagram) Disposition) string {
			ex, ok := h.a.Export(fl.key())
			if !ok {
				return "untracked"
			}
			h.a.Drop(fl.key())
			if d := h.a.Import(ex); d != nil {
				return fmt.Sprintf("resync ack=%d win=%d", d.TCP.Ack, d.TCP.Window)
			}
			return "no resync"
		}
	}
}

// diffAgents reports every way agent a's observable state differs from
// agent b's, or "".
func diffAgents(a, b *Agent, flows []*diffFlow) string {
	var diffs []string
	if a.Stats() != b.Stats() {
		diffs = append(diffs, fmt.Sprintf("Stats %+v\n  reference %+v", a.Stats(), b.Stats()))
	}
	for _, fl := range flows {
		ea, oka := a.Export(fl.key())
		eb, okb := b.Export(fl.key())
		ga, _ := a.FlowGuardState(fl.key())
		gb, _ := b.FlowGuardState(fl.key())
		if oka != okb || ga != gb || !reflect.DeepEqual(ea, eb) {
			diffs = append(diffs, fmt.Sprintf("flow %v: %s %+v\n  reference %s %+v", fl.key(), ga, ea, gb, eb))
		}
	}
	if a.DebtBytes() != b.DebtBytes() || a.SharedCacheBytes() != b.SharedCacheBytes() ||
		a.UndrainedBypassedFlows() != b.UndrainedBypassedFlows() || a.FlowCount() != b.FlowCount() {
		diffs = append(diffs, fmt.Sprintf("debt %d shared %d undrained %d flows %d; reference %d %d %d %d",
			a.DebtBytes(), a.SharedCacheBytes(), a.UndrainedBypassedFlows(), a.FlowCount(),
			b.DebtBytes(), b.SharedCacheBytes(), b.UndrainedBypassedFlows(), b.FlowCount()))
	}
	if !reflect.DeepEqual(a.Violations(), b.Violations()) {
		diffs = append(diffs, fmt.Sprintf("violations %q\n  reference %q", a.Violations(), b.Violations()))
	}
	return strings.Join(diffs, "\n")
}

package fastack

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// debtBytesScan recomputes DebtBytes by full scan, the definition its running counter is held to.
func (a *Agent) debtBytesScan() int64 {
	var n int64
	for _, f := range a.flows {
		n += int64(f.debtBytes())
	}
	return n
}

// undrainedScan recomputes UndrainedBypassedFlows by full scan.
func (a *Agent) undrainedScan() int {
	n := 0
	for _, f := range a.flows {
		if (f.gstate == GuardBypass || f.gstate == GuardDraining) && f.debtBytes() > 0 {
			n++
		}
	}
	return n
}

// sharedCacheScan recomputes SharedCacheBytes by full scan.
func (a *Agent) sharedCacheScan() int {
	n := 0
	for _, f := range a.flows {
		n += f.cacheBytes
	}
	return n
}

// TestSteadyStateZeroAllocs pins the tentpole guarantee as a tier-1 test,
// not just a benchmark number: with 1k concurrent flows warmed up, the
// steady-state segment lifecycle (HandleDownlink + HandleWirelessAck +
// HandleUplink) performs zero heap allocations per segment.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc regression is pinned in non-race runs")
	}
	const nflows = 1000
	d := newHotPathDriver(New(DefaultConfig(), nil), nflows)
	d.warm()
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		d.step(i)
		i++
	})
	if avg != 0 {
		t.Fatalf("steady-state hot path allocates %.2f allocs/op, want 0", avg)
	}
}

// TestRunningCountersMatchScan drives randomized many-flow traffic —
// including guard trips, sweeps, drops, and roaming export/import — and
// asserts after every operation that the O(1) running counters behind
// DebtBytes, UndrainedBypassedFlows, and SharedCacheBytes agree with a
// full flow-table scan.
func TestRunningCountersMatchScan(t *testing.T) {
	for _, seed := range []int64{1, 17, 99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.CheckInvariants = true
			cfg.IdleExpiry = 2 * sim.Second
			cfg.Guard.DrainExpiry = 2 * sim.Second
			h := newHarness(cfg)
			st := newScenario(h, 12)
			for op := 0; op < 4000; op++ {
				st.randomOp(rng)
				if got, want := h.a.DebtBytes(), h.a.debtBytesScan(); got != want {
					t.Fatalf("op %d: DebtBytes=%d scan=%d", op, got, want)
				}
				if got, want := h.a.UndrainedBypassedFlows(), h.a.undrainedScan(); got != want {
					t.Fatalf("op %d: UndrainedBypassedFlows=%d scan=%d", op, got, want)
				}
				if got, want := h.a.SharedCacheBytes(), h.a.sharedCacheScan(); got != want {
					t.Fatalf("op %d: SharedCacheBytes=%d scan=%d", op, got, want)
				}
			}
			if v := h.a.Violations(); len(v) != 0 {
				t.Fatalf("invariant violations: %v", v)
			}
		})
	}
}

// TestSharedBudgetProperties drives random insert/vouch/drain/drop/sweep
// interleavings across N flows against a deliberately tiny shared budget
// and asserts the budget's safety contract after every operation:
//
//  1. the shared byte accounting is exact (counter == scan) and never
//     negative;
//  2. vouched [seq_TCP, seq_fack) bytes are never evicted — the cache
//     covers the debt range of every flow that has one;
//  3. whenever the budget stands overrun after an insert, every flow's
//     front cache entry is vouched (or is the inserting flow's only
//     entry): there was nothing legal left to evict;
//  4. flows holding no cache bytes are not members of the eviction list;
//  5. Drop/Sweep return every flow's bytes: after removing all flows the
//     shared accounting reads zero and the datagram pool holds no
//     duplicate entries (no leak, no double-free).
func TestSharedBudgetProperties(t *testing.T) {
	for _, seed := range []int64{3, 42, 1234} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cfg := DefaultConfig()
			cfg.CheckInvariants = true
			cfg.CacheLimitBytes = 24 * segLen
			cfg.SharedCacheBudgetBytes = 40 * segLen
			cfg.IdleExpiry = 2 * sim.Second
			cfg.Guard.DrainExpiry = 2 * sim.Second
			h := newHarness(cfg)
			st := newScenario(h, 10)
			for op := 0; op < 5000; op++ {
				inserted := st.randomOp(rng)
				bud := h.a.bud
				if bud.used != h.a.sharedCacheScan() || bud.used < 0 {
					t.Fatalf("op %d: budget accounting used=%d scan=%d", op, bud.used, h.a.sharedCacheScan())
				}
				for _, f := range h.a.flows {
					if f.debtBytes() > 0 && !f.cacheCovers(f.seqTCP, f.seqFack) {
						t.Fatalf("op %d: vouched range [%d,%d) evicted on %v", op, f.seqTCP, f.seqFack, f.flow)
					}
					if f.cacheBytes == 0 && f.inLRU {
						t.Fatalf("op %d: empty flow still in eviction list: %v", op, f.flow)
					}
					if f.cacheBytes > 0 && !f.inLRU {
						t.Fatalf("op %d: flow holding %dB not in eviction list: %v", op, f.cacheBytes, f.flow)
					}
				}
				if inserted != nil && bud.used > bud.limit {
					for v := bud.lruHead; v != nil; v = v.lruNext {
						old := v.cache.At(0)
						vouched := v.debtBytes() > 0 && seqspace.LT(v.seqTCP, segEnd(old)) && seqspace.LT(old.Seq, v.seqFack)
						if !vouched && !(v == inserted && v.cache.Len() == 1) {
							t.Fatalf("op %d: budget overrun (%d > %d) with evictable front seq=%d on %v",
								op, bud.used, bud.limit, old.Seq, v.flow)
						}
					}
				}
			}
			// Tear everything down: all bytes must come home.
			for key := range h.a.flows {
				h.a.Drop(key)
			}
			if h.a.bud.used != 0 || h.a.DebtBytes() != 0 || h.a.UndrainedBypassedFlows() != 0 {
				t.Fatalf("leak after dropping all flows: used=%d debt=%d undrained=%d",
					h.a.bud.used, h.a.DebtBytes(), h.a.UndrainedBypassedFlows())
			}
			seen := map[*packet.Datagram]bool{}
			for _, d := range h.a.bud.pool.free {
				if seen[d] {
					t.Fatal("datagram pooled twice (double-free)")
				}
				seen[d] = true
			}
			if v := h.a.Violations(); len(v) != 0 {
				t.Fatalf("invariant violations: %v", v)
			}
		})
	}
}

// TestBatchFeedbackEquivalence drives the same downlink traffic and the
// same wireless-feedback event sequence through two agents — one receiving
// feedback per segment via HandleWirelessAck, one receiving it as a single
// HandleWirelessAckBatch — and asserts the per-flow protocol state (fast-ack
// point, cache contents, debt, q_seq) ends identical, the batched agent's
// coalesced fast ACKs land on the same cumulative ACK numbers, and MAC-drop
// cache redrives are emitted for the same segments.
func TestBatchFeedbackEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	perSeg := newHarness(DefaultConfig())
	batched := newHarness(DefaultConfig())
	const nflows = 6

	type sent struct {
		fi  int
		seg *packet.Datagram
		ok  bool
	}
	nextSeq := make([]uint32, nflows)
	for i := 0; i < nflows; i++ {
		srv, cli := benchEPs(i)
		benchHandshake(perSeg.a, srv, cli)
		benchHandshake(batched.a, srv, cli)
		nextSeq[i] = 1000
	}
	for round := 0; round < 50; round++ {
		var events []sent
		for i := 0; i < 40; i++ {
			fi := rng.Intn(nflows)
			srv, cli := benchEPs(fi)
			seg := packet.NewTCPDatagram(srv, cli, segLen)
			seg.TCP.Flags = packet.FlagACK | packet.FlagPSH
			seg.TCP.Seq = nextSeq[fi]
			nextSeq[fi] += segLen
			perSeg.a.HandleDownlink(seg)
			batched.a.HandleDownlink(seg.Clone())
			events = append(events, sent{fi: fi, seg: seg, ok: rng.Intn(10) != 0})
		}
		// Shuffle fates so feedback interleaves flows like a real TXOP.
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })

		var perAcks, perRedrives []uint32
		lastAck := map[int]uint32{}
		for _, ev := range events {
			disp := perSeg.a.HandleWirelessAck(ev.seg, ev.ok)
			for _, d := range disp.ToSender {
				perAcks = append(perAcks, d.TCP.Ack)
				lastAck[ev.fi] = d.TCP.Ack
			}
			for _, d := range disp.ToClient {
				perRedrives = append(perRedrives, d.TCP.Seq)
			}
		}
		evs := make([]SegFate, len(events))
		for i, ev := range events {
			evs[i] = SegFate{Dgram: ev.seg, OK: ev.ok}
		}
		bd := batched.a.HandleWirelessAckBatch(evs)
		var batchRedrives []uint32
		for _, d := range bd.ToClient {
			batchRedrives = append(batchRedrives, d.TCP.Seq)
		}
		if len(batchRedrives) != len(perRedrives) {
			t.Fatalf("round %d: redrives differ: per-seg %v batch %v", round, perRedrives, batchRedrives)
		}
		for i := range batchRedrives {
			if batchRedrives[i] != perRedrives[i] {
				t.Fatalf("round %d: redrive %d: per-seg seq %d, batch seq %d", round, i, perRedrives[i], batchRedrives[i])
			}
		}
		// The batched agent coalesces: at most one fast ACK per flow, each
		// landing on the same final cumulative point the per-segment agent
		// reached.
		if len(bd.ToSender) > nflows {
			t.Fatalf("round %d: %d fast ACKs from one batch across %d flows", round, len(bd.ToSender), nflows)
		}
		for _, d := range bd.ToSender {
			key := d.Flow().Reverse() // generated ACK travels client→server
			if f := batched.a.flows[key]; f == nil || d.TCP.Ack != f.seqFack {
				t.Fatalf("round %d: batch fast ACK %d does not land on seq_fack", round, d.TCP.Ack)
			}
		}
		for fi := 0; fi < nflows; fi++ {
			srv, cli := benchEPs(fi)
			key := packet.Flow{Proto: packet.ProtoTCP, Src: srv, Dst: cli}
			fp, fb := perSeg.a.flows[key], batched.a.flows[key]
			if fp.seqFack != fb.seqFack || fp.seqExp != fb.seqExp || fp.seqTCP != fb.seqTCP {
				t.Fatalf("round %d flow %d: per-seg %v, batched %v", round, fi, fp, fb)
			}
			if fp.cacheBytes != fb.cacheBytes || fp.qSeq.Len() != fb.qSeq.Len() {
				t.Fatalf("round %d flow %d: cache/qseq diverge: per-seg %v, batched %v", round, fi, fp, fb)
			}
			if want, ok := lastAck[fi]; ok && want != fb.seqFack {
				// The per-segment agent's final fast ACK for the flow must
				// match the batched agent's coalesced cumulative point.
				t.Fatalf("round %d flow %d: final per-seg ack %d, batched seq_fack %d", round, fi, want, fb.seqFack)
			}
			// Keep debt bounded so rounds stay in steady state.
			ack := packet.NewTCPDatagram(cli, srv, 0)
			ack.TCP.Flags = packet.FlagACK
			ack.TCP.Window = 4096
			ack.TCP.Ack = fp.seqFack
			perSeg.a.HandleUplink(ack)
			batched.a.HandleUplink(ack.Clone())
		}
	}
	sp, sb := perSeg.a.Stats(), batched.a.Stats()
	if sp.ClientAcksDropped != sb.ClientAcksDropped || sp.WirelessRedrives != sb.WirelessRedrives {
		t.Fatalf("stats diverge: per-seg %+v, batched %+v", sp, sb)
	}
}

// scenario drives one agent with randomized but protocol-shaped many-flow
// traffic for the counter-equivalence and budget property tests. Operations
// cover the whole lifecycle: in-order data, holes, wireless feedback (both
// fates), client ACKs (progress, duplicates, wild), RSTs, sweeps, drops,
// and roaming export/import.
type scenario struct {
	h     *harness
	flows []*scenarioFlow
}

type scenarioFlow struct {
	idx     int
	srv     packet.Endpoint
	cli     packet.Endpoint
	nextSeq uint32 // next downlink byte
	sent    []*packet.Datagram
	acked   uint32 // client cumulative ACK
}

func newScenario(h *harness, nflows int) *scenario {
	s := &scenario{h: h}
	for i := 0; i < nflows; i++ {
		s.flows = append(s.flows, s.open(i))
	}
	return s
}

func (s *scenario) open(i int) *scenarioFlow {
	srv, cli := benchEPs(i)
	benchHandshake(s.h.a, srv, cli)
	return &scenarioFlow{idx: i, srv: srv, cli: cli, nextSeq: 1000, acked: 1000}
}

func (s *scenario) key(f *scenarioFlow) packet.Flow {
	return packet.Flow{Proto: packet.ProtoTCP, Src: f.srv, Dst: f.cli}
}

// randomOp performs one random operation; it returns the flow state a
// downlink insert landed on (for the budget-overrun assertion), or nil.
func (s *scenario) randomOp(rng *rand.Rand) *flowState {
	f := s.flows[rng.Intn(len(s.flows))]
	switch op := rng.Intn(20); {
	case op < 8: // downlink data, occasionally jumping a hole
		seq := f.nextSeq
		if rng.Intn(8) == 0 {
			seq += segLen * uint32(1+rng.Intn(3)) // upstream loss
		}
		d := packet.NewTCPDatagram(f.srv, f.cli, segLen)
		d.TCP.Flags = packet.FlagACK | packet.FlagPSH
		d.TCP.Seq = seq
		f.nextSeq = seq + segLen
		s.h.a.HandleDownlink(d)
		f.sent = append(f.sent, d)
		if len(f.sent) > 64 {
			f.sent = f.sent[len(f.sent)-64:]
		}
		return s.h.a.flows[s.key(f)]
	case op < 13: // wireless feedback for a recently sent segment
		if len(f.sent) == 0 {
			return nil
		}
		d := f.sent[rng.Intn(len(f.sent))]
		s.h.a.HandleWirelessAck(d, rng.Intn(6) != 0)
	case op < 17: // client cumulative ACK: progress, duplicate, or wild
		ack := f.acked
		switch rng.Intn(4) {
		case 0: // duplicate (dup-ACK retransmit path)
		case 1:
			ack = f.nextSeq + 100000*uint32(rng.Intn(2)) // frontier or wild
		default:
			if st := s.h.a.flows[s.key(f)]; st != nil && seqspace.LT(f.acked, st.seqFack) {
				span := st.seqFack - f.acked
				ack = f.acked + uint32(rng.Int63n(int64(span))+1)
			}
		}
		a := packet.NewTCPDatagram(f.cli, f.srv, 0)
		a.TCP.Flags = packet.FlagACK
		a.TCP.Window = 4096
		a.TCP.Ack = ack
		s.h.a.HandleUplink(a)
		if seqspace.LT(f.acked, ack) && !seqspace.LT(f.nextSeq, ack) {
			f.acked = ack
		}
	case op < 18: // advance time; occasionally sweep
		s.h.now += sim.Time(rng.Intn(500)) * sim.Millisecond
		if rng.Intn(4) == 0 {
			s.h.a.Sweep()
		}
	case op < 19: // RST / drop, then reopen
		if rng.Intn(2) == 0 {
			r := packet.NewTCPDatagram(f.srv, f.cli, 0)
			r.TCP.Flags = packet.FlagRST
			s.h.a.HandleDownlink(r)
		} else {
			s.h.a.Drop(s.key(f))
		}
		s.flows[f.idx] = s.open(f.idx)
	default: // roam: export, drop, re-import
		key := s.key(f)
		if ex, ok := s.h.a.Export(key); ok {
			s.h.a.Drop(key)
			s.h.a.Import(ex)
		}
	}
	return nil
}

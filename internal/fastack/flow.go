package fastack

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/seqspace"
	"repro/internal/sim"
)

// cachedSeg is one retransmission-cache entry: a clone of the data segment,
// filed under its sequence number.
type cachedSeg = seqspace.Entry[*packet.Datagram]

// segEnd returns the sequence number just past a cached segment's payload.
func segEnd(c *cachedSeg) uint32 { return c.Seq + uint32(c.V.PayloadLen) }

// flowState is the per-flow FastACK state, Table 3 of the paper:
//
//	holes_vec  TCP holes vector                         -> above
//	seq_high   highest TCP data seq seen                -> seqHigh
//	seq_exp    expected TCP data seq from the sender    -> seqExp
//	seq_fack   last fast-acked TCP data seq by the AP   -> seqFack
//	seq_TCP    last TCP data seq ACKed at the TCP layer -> seqTCP
//	q_seq      queue of seqs waiting to be fast-ACKed   -> qSeq
//
// All sequence fields hold "next byte" cumulative positions, so seqFack is
// directly usable as the Ack field of a generated fast ACK.
type flowState struct {
	flow packet.Flow // downlink direction: sender -> client

	seqHigh uint32
	seqExp  uint32
	seqFack uint32
	seqTCP  uint32

	// qSeq holds the segments acknowledged at the 802.11 layer but not yet
	// fast-ACKed: payload length by sequence number.
	qSeq seqspace.Window[int]

	// above records byte ranges received from the sender beyond seqExp
	// (the holes vector complement: the data we *do* have above a hole).
	above seqspace.Ranges

	// cache is the local retransmission cache.
	cache      seqspace.Window[*packet.Datagram]
	cacheBytes int

	// bud is the owning agent's shared cache budget and datagram pool.
	bud              *cacheBudget
	lruPrev, lruNext *flowState // intrusive links in bud's eviction order
	inLRU            bool

	// Running-counter shadows (see Agent.accountFlow): the values last
	// folded into bud.debtTotal / bud.undrained for this flow.
	acctDebt      int64
	acctUndrained bool

	// inBatch marks the flow as already collected by the current
	// HandleWirelessAckBatch invocation.
	inBatch bool

	// vouchNeedsCache (set by the agent unless DisableCache) refuses to
	// advance the fast-ack point over a segment whose cache entry is gone:
	// an entry evicted by cache pressure *before* its 802.11 feedback
	// arrived must never be vouched for afterward, because the agent could
	// not repair it. The drain stalls at the evicted segment instead; the
	// debt-stall detector then degrades the flow into bypass, which is
	// safe.
	vouchNeedsCache bool

	// sawData records whether this connection incarnation has carried
	// downlink payload. A flow tracked only through its handshake — e.g.
	// the ACK-only downlink direction of an uplink-dominant transfer —
	// must never be fast-ACK-managed: there is nothing to vouch for, and
	// suppressing the client's real ACKs would strangle its upload.
	sawData bool

	// Client-side knowledge for window rewriting (§5.5.2).
	clientWindow      int // last advertised rx_win in bytes (unscaled)
	clientWScale      int // -1 until the client's SYN-ACK is seen
	clientSACKOK      bool
	initialized       bool
	lastFastAckAt     sim.Time
	dupAcksFromClient int
	lastClientAck     uint32
	zeroWindowSent    bool

	// Local-retransmission guard: a hole is redriven at most once per
	// guard window, however many duplicate ACKs the client emits for it
	// (an A-MPDU landing behind a hole produces one dup-ACK per subframe).
	lastRtxSeq uint32
	lastRtxAt  sim.Time

	// Safety-guard state (guard.go).
	gstate         GuardState
	suspectAt      sim.Time // entered Suspect
	stormCount     int      // local retransmits since last client progress
	debtProgressAt sim.Time // last time the debt shrank (or was zero)
	ackProgressAt  sim.Time // last genuine client cumulative-ACK advance
	bypassAt       sim.Time // entered Bypass
	bypassReason   GuardReason
	debtAtBypass   int64
	evictBlocked   bool // cacheInsert refused to evict vouched bytes
}

func (f *flowState) String() string {
	return fmt.Sprintf("flow %v %s exp=%d fack=%d tcp=%d high=%d q=%d cache=%d",
		f.flow, f.gstate, f.seqExp, f.seqFack, f.seqTCP, f.seqHigh, f.qSeq.Len(), f.cache.Len())
}

// debtBytes is the fast-ACK debt [seq_TCP, seq_fack): bytes already
// acknowledged to the sender on the client's behalf that the client itself
// has not acknowledged. While it is non-zero the agent — and only the
// agent — can repair losses in that range.
func (f *flowState) debtBytes() int {
	d := int32(f.seqFack - f.seqTCP)
	if d <= 0 {
		return 0
	}
	return int(d)
}

// resetForNewConnection discards per-incarnation packet state and guard
// verdicts when a fresh SYN reuses the 5-tuple. Sequence pointers are
// re-seeded by the caller via initAt.
func (f *flowState) resetForNewConnection() {
	f.qSeq.Reset()
	f.above = seqspace.Ranges{}
	f.releaseCache()
	f.sawData = false
	f.dupAcksFromClient = 0
	f.zeroWindowSent = false
	f.gstate = GuardActive
	f.suspectAt = 0
	f.stormCount = 0
	f.debtProgressAt = 0
	f.ackProgressAt = 0
	f.bypassAt = 0
	f.bypassReason = ""
	f.debtAtBypass = 0
	f.evictBlocked = false
}

// initAt seeds the sequence pointers when the first data (or handshake)
// packet is observed.
func (f *flowState) initAt(seq uint32) {
	f.seqExp = seq
	f.seqFack = seq
	f.seqTCP = seq
	f.seqHigh = seq
	f.initialized = true
}

// wscale is the client's window-scale shift: 0 until its SYN-ACK is seen.
func (f *flowState) wscale() int { return max(f.clientWScale, 0) }

// rtxDue reports whether the hole at seq may be redriven at now under the
// local-retransmission guard, and if so claims the guard window for it.
func (f *flowState) rtxDue(seq uint32, now, guard sim.Time) bool {
	if seq == f.lastRtxSeq && now-f.lastRtxAt < guard {
		return false
	}
	f.lastRtxSeq, f.lastRtxAt = seq, now
	return true
}

// outstandingBytes is out_bytes = seq_high − seq_TCP: everything the client
// has not actually acknowledged at the TCP layer, including data still
// queued in the AP driver (§5.5.2).
func (f *flowState) outstandingBytes() int {
	return int(f.seqHigh - f.seqTCP)
}

// advertisedWindow computes rx'_win = rx_win − out_bytes, additionally
// clamped so the flow's unacknowledged-at-802.11 backlog (seq_high −
// seq_fack ≈ bytes in the AP driver queue or in the air) stays within the
// per-flow queue budget. Clamped at 0.
func (f *flowState) advertisedWindow(queueBudget int) int {
	w := f.clientWindow - f.outstandingBytes()
	if queueBudget > 0 {
		if q := queueBudget - int(f.seqHigh-f.seqFack); q < w {
			w = q
		}
	}
	if w < 0 {
		w = 0
	}
	return w
}

// enqueueAcked inserts an 802.11-acknowledged segment into q_seq, dropping
// duplicates (MAC-layer retransmissions can deliver the same MPDU's ACK
// twice).
func (f *flowState) enqueueAcked(seq uint32, length int) {
	if l := f.qSeq.Put(seq); l != nil {
		*l = length
	}
}

// drainContiguous pops entries off q_seq while they continue seq_fack,
// returning the new cumulative fast-ack point and how many segments it
// advanced over (Fig 12's continuity loop). segs > 0 means the fast-ack
// point moved; the segment count is also the caller's best proxy for the
// A-MPDU the block ACK covered.
func (f *flowState) drainContiguous() (newFack uint32, segs int) {
	for f.qSeq.Len() > 0 {
		head := *f.qSeq.Front()
		if head.Seq != f.seqFack {
			// Continuity broken: wait for the missing 802.11 ACK.
			if seqspace.LT(head.Seq, f.seqFack) {
				// Stale entry below the fast-ack point; discard.
				f.qSeq.PopFront()
				continue
			}
			break
		}
		if f.vouchNeedsCache && f.cacheLookup(head.Seq) == nil {
			// Evicted before its feedback arrived: the agent cannot repair
			// this segment, so it must not vouch for it. Stall here — the
			// debt-stall guard will bypass the flow, whose remaining debt
			// is still fully covered.
			break
		}
		f.seqFack = head.Seq + uint32(head.V)
		f.qSeq.PopFront()
		segs++
	}
	return f.seqFack, segs
}

// vouched reports whether a cached segment overlaps the fast-ACK debt range
// [seq_TCP, seq_fack): bytes vouched for toward the sender, which this cache
// is the only place to repair from and which are therefore never evicted.
func (f *flowState) vouched(c *cachedSeg) bool {
	return f.debtBytes() > 0 && seqspace.LT(f.seqTCP, segEnd(c)) && seqspace.LT(c.Seq, f.seqFack)
}

// releaseSeg returns an evicted/purged cache entry's bytes to the flow and
// the shared budget, and its datagram to the pool; a flow whose cache
// bytes reach 0 leaves the budget's eviction order.
func (f *flowState) releaseSeg(s cachedSeg) {
	n := s.V.PayloadLen
	f.cacheBytes -= n
	f.bud.used -= n
	f.bud.pool.put(s.V)
	if f.cacheBytes == 0 {
		f.bud.lruRemove(f)
	}
}

// releaseCache returns every cache entry to the shared accounting.
func (f *flowState) releaseCache() {
	for f.cache.Len() > 0 {
		f.releaseSeg(f.cache.PopFront())
	}
}

// dropPackets releases the packet state a flow no longer needs — the one
// teardown of a bypass, a detach and a removal. q_seq and the holes vector
// always go: nothing will be fast-ACKed or hole-ACKed again. With keepDebt
// (bypass) the cache shrinks to exactly the debt range — bytes below
// seq_TCP are acknowledged, bytes at or above seq_fack are still the
// sender's end-to-end responsibility (we never vouched for them) —
// otherwise it goes entirely, backing array and all.
func (f *flowState) dropPackets(keepDebt bool) {
	f.qSeq.Drop()
	f.above = seqspace.Ranges{}
	if !keepDebt {
		f.releaseCache()
		f.cache.Drop()
		return
	}
	f.cachePurge(f.seqTCP)
	for f.cache.Len() > 0 && !seqspace.LT(f.cache.At(f.cache.Len()-1).Seq, f.seqFack) {
		f.releaseSeg(f.cache.PopBack())
	}
}

// cacheInsert stores a clone of the data packet for local retransmission.
// Returns the evicted byte count if the per-flow cache limit forced
// eviction.
func (f *flowState) cacheInsert(d *packet.Datagram, limitBytes int) (evicted int) {
	slot := f.cache.Put(d.TCP.Seq)
	if slot == nil {
		return 0 // already cached (end-to-end retransmission), or no place in the window
	}
	*slot = f.bud.pool.clone(d)
	f.cacheBytes += d.PayloadLen
	f.bud.used += d.PayloadLen
	f.bud.touch(f)
	for limitBytes > 0 && f.cacheBytes > limitBytes && f.cache.Len() > 1 {
		// Evict the oldest (lowest seq): it is the most likely to have
		// been delivered already. But never a segment overlapping the
		// fast-ACK debt range [seq_TCP, seq_fack): those bytes were
		// vouched for toward the sender and this cache is the only place
		// they can ever be repaired from. The cache overruns its budget
		// instead, and the blocked eviction is surfaced as a thrash
		// signal for the guard.
		if f.vouched(f.cache.Front()) {
			f.evictBlocked = true
			break
		}
		old := f.cache.PopFront()
		f.releaseSeg(old)
		evicted += old.V.PayloadLen
	}
	return evicted
}

// cachePurge drops cache entries fully acknowledged at or below ack.
func (f *flowState) cachePurge(ack uint32) {
	for f.cache.Len() > 0 && seqspace.LEQ(segEnd(f.cache.Front()), ack) {
		f.releaseSeg(f.cache.PopFront())
	}
}

// cacheLookup returns the cached segment starting at seq, or nil.
func (f *flowState) cacheLookup(seq uint32) *packet.Datagram {
	if d := f.cache.Find(seq); d != nil {
		return *d
	}
	return nil
}

// addAbove records a received byte range beyond seqExp.
func (f *flowState) addAbove(left, right uint32) { f.above.Add(left, right) }

// advanceExp moves seqExp past end and then over any contiguous ranges
// already received above it (hole filling).
func (f *flowState) advanceExp(end uint32) {
	f.seqExp = f.above.Absorb(seqspace.Max(f.seqExp, end))
}

package fastack

import (
	"fmt"
	"sort"

	"repro/internal/packet"
	"repro/internal/sim"
)

// seqLT reports a < b in 32-bit TCP sequence space.
func seqLT(a, b uint32) bool { return int32(a-b) < 0 }

// seqLEQ reports a <= b in sequence space.
func seqLEQ(a, b uint32) bool { return int32(a-b) <= 0 }

// ackedSeg is one TCP segment acknowledged at the 802.11 layer but not yet
// fast-ACKed: an entry of the paper's q_seq.
type ackedSeg struct {
	seq uint32
	len int
}

// cachedSeg is one retransmission-cache entry.
type cachedSeg struct {
	seq   uint32
	end   uint32
	dgram *packet.Datagram
}

// flowState is the per-flow FastACK state, Table 3 of the paper:
//
//	holes_vec  TCP holes vector                         -> above (rangeSet)
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

	qSeq ring[ackedSeg] // sorted by seq, disjoint

	// above records byte ranges received from the sender beyond seqExp
	// (the holes vector complement: the data we *do* have above a hole).
	above []packet.SACKBlock

	// cache is the local retransmission cache, ordered by seq.
	cache      ring[cachedSeg]
	cacheBytes int

	// bud is the owning agent's shared cache budget / pool; nil for a
	// standalone flowState (unit tests), in which case every cache method
	// degrades to plain per-flow behavior with heap clones.
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
	// safe. Standalone flowState unit tests leave it false.
	vouchNeedsCache bool

	// sawData records whether this connection incarnation has carried
	// downlink payload. A flow tracked only through its handshake — e.g.
	// the ACK-only downlink direction of an uplink-dominant transfer —
	// must never be fast-ACK-managed: there is nothing to vouch for, and
	// suppressing the client's real ACKs would strangle its upload.
	sawData bool

	// Client-side knowledge for window rewriting (§5.5.2).
	clientWindow      int // last advertised rx_win in bytes (unscaled)
	clientWScale      int
	senderWScale      int
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

	// Flow-selection state (footnote 10): when MarkAllFlows is false, a
	// flow is only promoted to fast-acking after it has carried
	// MinFlowBytes of downlink payload — short flows are not worth the
	// state.
	bytesSeen int64
	promoted  bool

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
	f.above = nil
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

// qSeqSearch returns the first q_seq index whose seq is >= seq.
func (f *flowState) qSeqSearch(seq uint32) int {
	lo, hi := 0, f.qSeq.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seqLT(f.qSeq.At(mid).seq, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// enqueueAcked inserts an 802.11-acknowledged segment into q_seq, keeping
// the queue sorted and dropping duplicates (MAC-layer retransmissions can
// deliver the same MPDU's ACK twice). Block-ACK feedback is mostly
// in-order, so the common case is a plain append at the back.
func (f *flowState) enqueueAcked(seq uint32, length int) {
	if n := f.qSeq.Len(); n == 0 || seqLT(f.qSeq.At(n-1).seq, seq) {
		f.qSeq.PushBack(ackedSeg{seq: seq, len: length})
		return
	}
	i := f.qSeqSearch(seq)
	if i < f.qSeq.Len() && f.qSeq.At(i).seq == seq {
		return
	}
	f.qSeq.Insert(i, ackedSeg{seq: seq, len: length})
}

// drainContiguous pops entries off q_seq while they continue seq_fack,
// returning the new cumulative fast-ack point and how many segments it
// advanced over (Fig 12's continuity loop). segs > 0 means the fast-ack
// point moved; the segment count is also the caller's best proxy for the
// A-MPDU the block ACK covered.
func (f *flowState) drainContiguous() (newFack uint32, segs int) {
	for f.qSeq.Len() > 0 {
		head := *f.qSeq.At(0)
		if head.seq != f.seqFack {
			// Continuity broken: wait for the missing 802.11 ACK.
			if seqLT(head.seq, f.seqFack) {
				// Stale entry below the fast-ack point; discard.
				f.qSeq.PopFront()
				continue
			}
			break
		}
		if f.vouchNeedsCache && f.cacheLookup(head.seq) == nil {
			// Evicted before its feedback arrived: the agent cannot repair
			// this segment, so it must not vouch for it. Stall here — the
			// debt-stall guard will bypass the flow, whose remaining debt
			// is still fully covered.
			break
		}
		f.seqFack = head.seq + uint32(head.len)
		f.qSeq.PopFront()
		segs++
	}
	return f.seqFack, segs
}

// cloneDgram copies a datagram for the cache or a retransmission: pooled
// when the flow belongs to an agent, a plain heap clone otherwise.
func (f *flowState) cloneDgram(d *packet.Datagram) *packet.Datagram {
	if f.bud != nil {
		return f.bud.pool.clone(d)
	}
	return d.Clone()
}

// releaseSeg returns an evicted/purged cache entry's bytes to the flow and
// the shared budget, and its datagram to the pool.
func (f *flowState) releaseSeg(s cachedSeg) {
	n := int(s.end - s.seq)
	f.cacheBytes -= n
	if f.bud != nil {
		f.bud.used -= n
		f.bud.pool.put(s.dgram)
		if f.cacheBytes == 0 {
			f.bud.lruRemove(f)
		}
	}
}

// releaseCache returns every cache entry to the shared accounting.
func (f *flowState) releaseCache() {
	for f.cache.Len() > 0 {
		f.releaseSeg(f.cache.PopFront())
	}
}

// cacheSearch returns the first cache index whose seq is >= seq.
func (f *flowState) cacheSearch(seq uint32) int {
	lo, hi := 0, f.cache.Len()
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if seqLT(f.cache.At(mid).seq, seq) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// cacheInsert stores a clone of the data packet for local retransmission.
// Returns the evicted byte count if the per-flow cache limit forced
// eviction.
func (f *flowState) cacheInsert(d *packet.Datagram, limitBytes int) (evicted int) {
	seq := d.TCP.Seq
	end := seq + uint32(d.PayloadLen)
	if n := f.cache.Len(); n == 0 || seqLT(f.cache.At(n-1).seq, seq) {
		f.cache.PushBack(cachedSeg{seq: seq, end: end, dgram: f.cloneDgram(d)})
	} else {
		i := f.cacheSearch(seq)
		if i < f.cache.Len() && f.cache.At(i).seq == seq {
			return 0 // already cached (end-to-end retransmission)
		}
		f.cache.Insert(i, cachedSeg{seq: seq, end: end, dgram: f.cloneDgram(d)})
	}
	f.cacheBytes += d.PayloadLen
	if f.bud != nil {
		f.bud.used += d.PayloadLen
		f.bud.touch(f)
	}
	for limitBytes > 0 && f.cacheBytes > limitBytes && f.cache.Len() > 1 {
		// Evict the oldest (lowest seq): it is the most likely to have
		// been delivered already. But never a segment overlapping the
		// fast-ACK debt range [seq_TCP, seq_fack): those bytes were
		// vouched for toward the sender and this cache is the only place
		// they can ever be repaired from. The cache overruns its budget
		// instead, and the blocked eviction is surfaced as a thrash
		// signal for the guard.
		old := *f.cache.At(0)
		if f.debtBytes() > 0 && seqLT(f.seqTCP, old.end) && seqLT(old.seq, f.seqFack) {
			f.evictBlocked = true
			break
		}
		f.releaseSeg(f.cache.PopFront())
		evicted += int(old.end - old.seq)
	}
	return evicted
}

// cacheTrimToDebt shrinks the cache to exactly the debt range: entries
// fully acknowledged by the client and entries at or above seq_fack
// (never vouched for) are dropped. Entered on bypass, when the cache's
// only remaining job is making good on [seq_TCP, seq_fack).
func (f *flowState) cacheTrimToDebt() {
	f.cachePurge(f.seqTCP)
	for f.cache.Len() > 0 {
		last := *f.cache.At(f.cache.Len() - 1)
		if seqLT(last.seq, f.seqFack) {
			break // starts inside the debt range: keep
		}
		f.releaseSeg(f.cache.PopBack())
	}
}

// cachePurge drops cache entries fully acknowledged at or below ack.
func (f *flowState) cachePurge(ack uint32) {
	for f.cache.Len() > 0 && seqLEQ(f.cache.At(0).end, ack) {
		f.releaseSeg(f.cache.PopFront())
	}
}

// cacheLookup returns the cached segment starting at seq, or nil.
func (f *flowState) cacheLookup(seq uint32) *packet.Datagram {
	i := f.cacheSearch(seq)
	if i < f.cache.Len() && f.cache.At(i).seq == seq {
		return f.cache.At(i).dgram
	}
	return nil
}

// cacheRange returns cached segments overlapping [left, right).
func (f *flowState) cacheRange(left, right uint32) []*packet.Datagram {
	var out []*packet.Datagram
	for i := 0; i < f.cache.Len(); i++ {
		c := f.cache.At(i)
		if seqLT(c.seq, right) && seqLT(left, c.end) {
			out = append(out, c.dgram)
		}
	}
	return out
}

// addAbove records a received byte range beyond seqExp and merges overlaps.
func (f *flowState) addAbove(left, right uint32) {
	f.above = append(f.above, packet.SACKBlock{Left: left, Right: right})
	sort.Slice(f.above, func(i, j int) bool { return seqLT(f.above[i].Left, f.above[j].Left) })
	merged := f.above[:0]
	for _, b := range f.above {
		if n := len(merged); n > 0 && seqLEQ(b.Left, merged[n-1].Right) {
			if seqLT(merged[n-1].Right, b.Right) {
				merged[n-1].Right = b.Right
			}
			continue
		}
		merged = append(merged, b)
	}
	f.above = merged
}

// advanceExp moves seqExp past end and then over any contiguous ranges
// already received above it (hole filling).
func (f *flowState) advanceExp(end uint32) {
	if seqLT(f.seqExp, end) {
		f.seqExp = end
	}
	for len(f.above) > 0 && seqLEQ(f.above[0].Left, f.seqExp) {
		if seqLT(f.seqExp, f.above[0].Right) {
			f.seqExp = f.above[0].Right
		}
		f.above = f.above[1:]
	}
}

// hasHole reports whether upstream losses left gaps below seqHigh.
func (f *flowState) hasHole() bool { return len(f.above) > 0 }

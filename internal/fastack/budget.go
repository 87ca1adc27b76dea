package fastack

import "repro/internal/packet"

// dgramPool recycles the datagrams the agent mints on its hot path: cache
// clones, retransmit clones, and generated ACKs. Freed datagrams keep
// their TCP header struct, SACK backing array, and payload buffer, so a
// steady-state clone or buildAck touches no allocator. The pool is
// internal to one agent (single-goroutine like the agent itself).
//
// Ownership rule: a datagram obtained from the pool is owned by exactly
// one holder — the cache, or the caller a Disposition handed it to. It
// returns via put (cache purge/eviction) or Agent.Recycle (callers that
// opt in); callers that never recycle simply let the GC take it, which is
// always safe.
type dgramPool struct {
	free []*packet.Datagram
	// bufs holds spare payload buffers from recycled datagrams whose next
	// incarnation carries no payload (pure ACKs): Marshal distinguishes a
	// nil Payload (synthesized zeros) from an allocated one, so blanked
	// datagrams must not keep a stale buffer attached.
	bufs [][]byte
}

// get returns a blank TCP datagram: zeroed IP, zeroed TCP header with
// window scaling absent (mirroring packet.NewTCP), empty SACK slice with
// retained capacity, nil payload.
func (p *dgramPool) get() *packet.Datagram {
	n := len(p.free)
	if n == 0 {
		d := packet.NewTCPDatagram(packet.Endpoint{}, packet.Endpoint{}, 0) // one object
		d.IP = packet.IPv4{}
		return d
	}
	d := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	t := d.TCP
	sack := t.SACK[:0]
	if d.Payload != nil {
		p.bufs = append(p.bufs, d.Payload)
	}
	*d = packet.Datagram{TCP: t}
	*t = packet.TCP{WindowScale: -1, SACK: sack}
	return d
}

// clone returns a pooled deep copy of src, byte-equivalent to src.Clone():
// the payload buffer is copied (nil stays nil) and the SACK slice does not
// alias src's.
func (p *dgramPool) clone(src *packet.Datagram) *packet.Datagram {
	d := p.get()
	d.IP = src.IP
	d.PayloadLen = src.PayloadLen
	if src.Payload != nil {
		var buf []byte
		if n := len(p.bufs); n > 0 {
			buf = p.bufs[n-1]
			p.bufs[n-1] = nil
			p.bufs = p.bufs[:n-1]
		}
		d.Payload = append(buf[:0], src.Payload...)
	}
	if src.TCP != nil {
		sack := d.TCP.SACK
		*d.TCP = *src.TCP
		d.TCP.SACK = append(sack, src.TCP.SACK...)
	}
	if src.UDP != nil {
		u := *src.UDP
		d.UDP = &u
	}
	return d
}

// put returns a datagram to the pool. Non-TCP datagrams are dropped (get
// assumes a reusable TCP header); a nil is ignored.
func (p *dgramPool) put(d *packet.Datagram) {
	if d == nil || d.TCP == nil {
		return
	}
	d.UDP = nil
	p.free = append(p.free, d)
}

// cacheBudget is the agent-wide shared state behind every flow: the
// cross-flow retransmission-cache byte budget with its LRU eviction order,
// the datagram pool, and the running debt counters that replace the old
// O(flows) reporting scans.
//
// The budget complements the per-flow CacheLimitBytes: each flow is still
// individually capped, but the sum across flows is additionally bounded by
// limit. When an insert pushes the total over, flows yield their oldest
// segments in least-recently-inserted order — with the same refusal the
// per-flow limit honors: bytes inside any flow's vouched debt range
// [seq_TCP, seq_fack) are never evicted, because this cache is the only
// place they can ever be repaired from. If every remaining byte is
// vouched, the budget stays overrun and the inserting flow is tripped into
// bypass (cache_thrash), which trims its cache to exactly its debt.
type cacheBudget struct {
	limit int // bytes; 0 disables the cross-flow bound
	used  int // bytes across every flow's cache

	// Intrusive LRU over flows holding cache bytes, ordered by last
	// insert: head is the least-recently-inserted (first victim), tail the
	// most recent. Intrusive links keep membership changes allocation-free
	// and the eviction order independent of map iteration, so chaos
	// campaigns replay byte-identically.
	lruHead, lruTail *flowState

	pool dgramPool

	// Running aggregates maintained at flow state transitions (accountFlow
	// / removeFlow), so DebtBytes and UndrainedBypassedFlows are O(1).
	debtTotal int64
	undrained int
}

// touch moves f to the most-recently-inserted end, linking it in if it is
// not yet a member.
func (b *cacheBudget) touch(f *flowState) {
	if b.lruTail == f {
		return
	}
	if f.inLRU {
		b.unlink(f)
	}
	f.lruPrev = b.lruTail
	f.lruNext = nil
	if b.lruTail != nil {
		b.lruTail.lruNext = f
	} else {
		b.lruHead = f
	}
	b.lruTail = f
	f.inLRU = true
}

// lruRemove drops f from the eviction order (no cache bytes left).
func (b *cacheBudget) lruRemove(f *flowState) {
	if !f.inLRU {
		return
	}
	b.unlink(f)
	f.inLRU = false
}

func (b *cacheBudget) unlink(f *flowState) {
	if f.lruPrev != nil {
		f.lruPrev.lruNext = f.lruNext
	} else {
		b.lruHead = f.lruNext
	}
	if f.lruNext != nil {
		f.lruNext.lruPrev = f.lruPrev
	} else {
		b.lruTail = f.lruPrev
	}
	f.lruPrev, f.lruNext = nil, nil
}

// reclaim enforces the cross-flow budget after an insert by f: flows yield
// their oldest non-vouched segments in LRU order until the total fits.
// The entry f just inserted is spared (evicting it would turn the insert
// into a no-op and thrash). Returns the segments evicted and whether the
// budget is still overrun after every evictable byte was reclaimed.
func (b *cacheBudget) reclaim(f *flowState) (evicted int, overrun bool) {
	if b.limit <= 0 || b.used <= b.limit {
		return 0, false
	}
	for v := b.lruHead; v != nil && b.used > b.limit; {
		next := v.lruNext
		for b.used > b.limit && v.cache.Len() > 0 {
			if v == f && v.cache.Len() == 1 {
				break // the just-inserted entry
			}
			if v.vouched(v.cache.Front()) {
				break // this flow yields nothing more from the front
			}
			v.releaseSeg(v.cache.PopFront())
			evicted++
		}
		v = next
	}
	return evicted, b.used > b.limit
}

package fastack

import (
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/seqspace"
)

// newTestFlow is a flow with a budget of its own, for driving flowState
// directly.
func newTestFlow() *flowState { return &flowState{bud: &cacheBudget{}} }

func seg(seq uint32, n int) *packet.Datagram {
	d := packet.NewTCPDatagram(serverEP, clientEP, n)
	d.TCP.Seq = seq
	return d
}

// Property: whatever order 802.11 ACKs are enqueued in, q_seq stays
// sorted and disjoint, and drainContiguous never advances past a gap.
func TestQuickQSeqSortedDisjoint(t *testing.T) {
	f := func(raw []uint8) bool {
		fl := newTestFlow()
		fl.initAt(0)
		present := map[uint32]bool{}
		for _, r := range raw {
			s := uint32(r%32) * 100
			fl.enqueueAcked(s, 100)
			present[s] = true
		}
		for i := 1; i < fl.qSeq.Len(); i++ {
			if !seqspace.LT(fl.qSeq.At(i-1).Seq, fl.qSeq.At(i).Seq) {
				return false
			}
		}
		fack, _ := fl.drainContiguous()
		// fack must equal the length of the contiguous prefix 0,100,...
		want := uint32(0)
		for present[want] {
			want += 100
		}
		return fack == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the cache stays sorted, within its byte limit, and lookups
// find exactly the inserted, unpurged segments.
func TestQuickCacheInvariants(t *testing.T) {
	f := func(inserts []uint8, purgeAt uint8) bool {
		fl := newTestFlow()
		fl.initAt(0)
		const limit = 10 * 100
		live := map[uint32]bool{}
		for _, r := range inserts {
			s := uint32(r%64) * 100
			fl.cacheInsert(seg(s, 100), limit)
			live[s] = true
		}
		if fl.cacheBytes > limit {
			return false
		}
		for i := 1; i < fl.cache.Len(); i++ {
			if !seqspace.LT(fl.cache.At(i-1).Seq, fl.cache.At(i).Seq) {
				return false
			}
		}
		purge := uint32(purgeAt%64) * 100
		fl.cachePurge(purge)
		for ci := 0; ci < fl.cache.Len(); ci++ {
			c := fl.cache.At(ci)
			if seqspace.LT(c.Seq, purge) && seqspace.LEQ(segEnd(c), purge) {
				return false // purged range still present
			}
			if d := fl.cacheLookup(c.Seq); d == nil || d.TCP.Seq != c.Seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: addAbove + advanceExp behave like a hole tracker: after
// receiving any set of segments above seqExp and then filling the gap up
// to their start, seqExp lands at the end of the merged contiguous run.
func TestQuickHoleAbsorption(t *testing.T) {
	f := func(raw []uint8) bool {
		fl := newTestFlow()
		fl.initAt(1000)
		received := map[uint32]bool{}
		for _, r := range raw {
			s := 1000 + uint32(r%20+1)*100 // strictly above seqExp
			fl.addAbove(s, s+100)
			received[s] = true
		}
		// The sender retransmits the first missing segment at 1000.
		fl.advanceExp(1100)
		want := uint32(1100)
		for received[want] {
			want += 100
		}
		return fl.seqExp == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAdvertisedWindowClamps(t *testing.T) {
	fl := newTestFlow()
	fl.initAt(0)
	fl.clientWindow = 1000
	fl.seqHigh = 600
	fl.seqTCP = 0
	if got := fl.advertisedWindow(0); got != 400 {
		t.Fatalf("rxwin-outbytes = %d", got)
	}
	// Queue budget binds harder.
	fl.seqFack = 100 // 500 bytes un-802.11-acked
	if got := fl.advertisedWindow(300); got != 0 {
		t.Fatalf("budget clamp = %d, want 0 (500 > 300)", got)
	}
	// Never negative.
	fl.seqHigh = 5000
	if got := fl.advertisedWindow(0); got != 0 {
		t.Fatalf("negative window leaked: %d", got)
	}
}

package seqspace

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/packet"
)

// The three range sets Ranges replaced, kept as they were written.

// refRangeSet is tcpstack's SACK scoreboard: blocks in no particular order.
type refRangeSet struct{ ranges []packet.SACKBlock }

func (r *refRangeSet) add(left, right uint32) {
	if !LT(left, right) {
		return
	}
	out := r.ranges[:0:0]
	for _, b := range r.ranges {
		if LT(right, b.Left) || LT(b.Right, left) {
			out = append(out, b) // disjoint
			continue
		}
		if LT(b.Left, left) {
			left = b.Left
		}
		if LT(right, b.Right) {
			right = b.Right
		}
	}
	out = append(out, packet.SACKBlock{Left: left, Right: right})
	r.ranges = out
}

func (r *refRangeSet) contains(left, right uint32) bool {
	for _, b := range r.ranges {
		if LEQ(b.Left, left) && LEQ(right, b.Right) {
			return true
		}
	}
	return false
}

func (r *refRangeSet) trimBelow(seq uint32) {
	out := r.ranges[:0]
	for _, b := range r.ranges {
		if LEQ(b.Right, seq) {
			continue
		}
		if LT(b.Left, seq) {
			b.Left = seq
		}
		out = append(out, b)
	}
	r.ranges = out
}

// refSortMerge is the text tcpstack.Receiver.addOOO and
// fastack.flowState.addAbove shared: sort by Left, then fold every block
// that starts at or before the previous block's Right into it.
func refSortMerge(bs []packet.SACKBlock) []packet.SACKBlock {
	sort.Slice(bs, func(i, j int) bool { return LT(bs[i].Left, bs[j].Left) })
	merged := bs[:0]
	for _, b := range bs {
		if n := len(merged); n > 0 && LEQ(b.Left, merged[n-1].Right) {
			if LT(merged[n-1].Right, b.Right) {
				merged[n-1].Right = b.Right
			}
			continue
		}
		merged = append(merged, b)
	}
	return merged
}

// refEdgeAbsorb is the loop Receiver.absorbOOO and flowState.advanceExp
// shared: advance edge over every block it reaches, dropping them.
func refEdgeAbsorb(bs []packet.SACKBlock, edge uint32) ([]packet.SACKBlock, uint32) {
	for len(bs) > 0 && LEQ(bs[0].Left, edge) {
		if LT(edge, bs[0].Right) {
			edge = bs[0].Right
		}
		bs = bs[1:]
	}
	return bs, edge
}

// refOOO is tcpstack.Receiver's out-of-order buffer.
type refOOO struct {
	ooo    []packet.SACKBlock
	rcvNxt uint32
}

func (r *refOOO) add(left, right uint32) {
	for _, b := range r.ooo {
		if LEQ(b.Left, left) && LEQ(right, b.Right) {
			return // duplicate of buffered data
		}
	}
	r.ooo = refSortMerge(append(r.ooo, packet.SACKBlock{Left: left, Right: right}))
}

func (r *refOOO) deliver(end uint32) {
	r.rcvNxt = end
	r.ooo, r.rcvNxt = refEdgeAbsorb(r.ooo, r.rcvNxt)
}

// refAbove is fastack.flowState's holes vector.
type refAbove struct {
	above  []packet.SACKBlock
	seqExp uint32
}

func (f *refAbove) add(left, right uint32) {
	f.above = refSortMerge(append(f.above, packet.SACKBlock{Left: left, Right: right}))
}

func (f *refAbove) advanceExp(end uint32) {
	if LT(f.seqExp, end) {
		f.seqExp = end
	}
	f.above, f.seqExp = refEdgeAbsorb(f.above, f.seqExp)
}

// rangesRun drives a Ranges in each of its three roles beside the code it
// replaced and a byte bitmap, over span bytes starting at base.
type rangesRun struct {
	t    testing.TB
	base uint32

	sacked   Ranges // vs refRangeSet
	refSack  refRangeSet
	sackBits []bool

	ooo     Ranges // vs refOOO
	refOOO  refOOO
	oooEdge uint32

	above     Ranges // vs refAbove
	refAbove  refAbove
	aboveEdge uint32

	heldBits []bool // bytes ooo and above hold beyond their edge
}

const rangesSpan = 4096

func newRangesRun(t testing.TB, base uint32) *rangesRun {
	return &rangesRun{
		t: t, base: base,
		sackBits: make([]bool, rangesSpan), heldBits: make([]bool, rangesSpan),
		refOOO: refOOO{rcvNxt: base}, oooEdge: base,
		refAbove: refAbove{seqExp: base}, aboveEdge: base,
	}
}

// mark sets bits [lo, hi) and returns how many were clear.
func mark(bits []bool, lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		if !bits[i] {
			bits[i] = true
			n++
		}
	}
	return n
}

func countSet(bits []bool) int {
	n := 0
	for _, b := range bits {
		if b {
			n++
		}
	}
	return n
}

// check holds r to its invariants, to the reference's block list and to the
// bitmap's byte count.
func (rr *rangesRun) check(name string, r *Ranges, want []packet.SACKBlock, bytes int) {
	rr.t.Helper()
	for i := 0; i < r.Len(); i++ {
		b := r.At(i)
		if !LT(b.Left, b.Right) {
			rr.t.Fatalf("%s: empty or inverted block %v", name, b)
		}
		if i > 0 && !LT(r.At(i-1).Right, b.Left) {
			rr.t.Fatalf("%s: blocks %v, %v overlap, touch or are out of order", name, r.At(i-1), b)
		}
	}
	if r.Len() != len(want) {
		rr.t.Fatalf("%s: %d blocks %v, reference has %v", name, r.Len(), r.b, want)
	}
	for i, b := range want {
		if r.At(i) != b {
			rr.t.Fatalf("%s: block %d is %v, reference has %v", name, i, r.At(i), b)
		}
	}
	if r.Bytes() != bytes {
		rr.t.Fatalf("%s: Bytes = %d, bitmap holds %d", name, r.Bytes(), bytes)
	}
}

// checkSacked compares the scoreboard with the reference's blocks put in
// order (the reference kept them in arrival order; only membership mattered).
func (rr *rangesRun) checkSacked() {
	rr.t.Helper()
	sorted := append([]packet.SACKBlock(nil), rr.refSack.ranges...)
	sort.Slice(sorted, func(i, j int) bool { return LT(sorted[i].Left, sorted[j].Left) })
	rr.check("sacked", &rr.sacked, sorted, countSet(rr.sackBits))
}

// add puts [lo, hi) (offsets from base) into all three sets; the two edge
// sets only take what lies beyond their edge, as their callers do.
func (rr *rangesRun) add(lo, hi int) {
	rr.t.Helper()
	left, right := rr.base+uint32(lo), rr.base+uint32(hi)

	rr.refSack.add(left, right)
	if got, want := rr.sacked.Add(left, right), mark(rr.sackBits, lo, max(lo, hi)); got != want {
		rr.t.Fatalf("sacked.Add(%d, %d) = %d new bytes, bitmap says %d", lo, hi, got, want)
	}
	rr.checkSacked()

	if lo >= hi {
		return
	}
	if LT(rr.oooEdge, left) {
		rr.refOOO.add(left, right)
		if got, want := rr.ooo.Add(left, right), mark(rr.heldBits, lo, hi); got != want {
			rr.t.Fatalf("ooo.Add(%d, %d) = %d new bytes, bitmap says %d", lo, hi, got, want)
		}
		rr.refAbove.add(left, right)
		rr.above.Add(left, right)
	}
	rr.check("ooo", &rr.ooo, rr.refOOO.ooo, countSet(rr.heldBits))
	rr.check("above", &rr.above, rr.refAbove.above, countSet(rr.heldBits))
}

// advance is in-order arrival up to offset to (both edge sets), which is
// also the cumulative ACK the scoreboard is trimmed by; then a containment
// probe of [lo, hi).
func (rr *rangesRun) advance(to, lo, hi int) {
	rr.t.Helper()
	end := rr.base + uint32(to)

	rr.refSack.trimBelow(end)
	rr.sacked.TrimBelow(end)
	for i := 0; i < to; i++ {
		rr.sackBits[i] = false
	}
	rr.checkSacked()
	left, right := rr.base+uint32(lo), rr.base+uint32(hi)
	if got, want := rr.sacked.Contains(left, right), rr.refSack.contains(left, right); got != want {
		rr.t.Fatalf("sacked.Contains(%d, %d) = %v, reference %v", lo, hi, got, want)
	}

	if !LT(rr.oooEdge, end) {
		return // old data: the receiver re-ACKs and buffers nothing
	}
	rr.refOOO.deliver(end)
	rr.oooEdge = rr.ooo.Absorb(end)
	rr.refAbove.advanceExp(end)
	rr.aboveEdge = rr.above.Absorb(Max(rr.aboveEdge, end))
	// The edge lands past the bitmap's contiguous run from `to`.
	run := to
	for run < rangesSpan && rr.heldBits[run] {
		run++
	}
	for i := 0; i < run; i++ {
		rr.heldBits[i] = false
	}
	if want := rr.base + uint32(run); rr.oooEdge != want || rr.refOOO.rcvNxt != want || rr.aboveEdge != want || rr.refAbove.seqExp != want {
		rr.t.Fatalf("advance to %d: edges ooo %d (ref %d) above %d (ref %d), bitmap run ends at %d",
			to, rr.oooEdge-rr.base, rr.refOOO.rcvNxt-rr.base, rr.aboveEdge-rr.base, rr.refAbove.seqExp-rr.base, run)
	}
	rr.check("ooo", &rr.ooo, rr.refOOO.ooo, countSet(rr.heldBits))
	rr.check("above", &rr.above, rr.refAbove.above, countSet(rr.heldBits))
}

// Ranges holds the same blocks after every operation as each of the three
// implementations it replaced, and as many bytes as a bitmap.
func TestRangesMatchReferences(t *testing.T) {
	for seed := 0; seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		rr := newRangesRun(t, testISS(seed, rng))
		edge := 0
		for op := 0; op < 250 && edge < rangesSpan-200; op++ {
			// Segment-sized pieces on a 50-byte grid, so that overlaps,
			// exact duplicates and touching neighbours are all common.
			lo := min(edge+50*rng.Intn(24), rangesSpan)
			hi := min(lo+50*rng.Intn(5), rangesSpan)
			if rng.Intn(5) > 0 {
				rr.add(lo, hi)
				continue
			}
			edge += 50 * rng.Intn(4)
			rr.advance(edge, lo, hi)
			edge = int(rr.oooEdge - rr.base)
		}
	}
}

// The named hole-tracker cases, straight on Ranges (flowtable_test.go runs
// them through flowState).
func TestRangesTouchingMergeAndAbsorb(t *testing.T) {
	var r Ranges
	if n := r.Add(2000, 3000); n != 1000 {
		t.Fatalf("first add covered %d", n)
	}
	if n := r.Add(3000, 4000); n != 1000 || r.Len() != 1 {
		t.Fatalf("touching add covered %d, %d blocks", n, r.Len())
	}
	if n := r.Add(2500, 3500); n != 0 || r.Len() != 1 {
		t.Fatalf("contained add covered %d, %d blocks", n, r.Len())
	}
	if n := r.Add(5000, 6000); n != 1000 || r.Len() != 2 {
		t.Fatalf("disjoint add covered %d, %d blocks", n, r.Len())
	}
	if n := r.Add(3900, 5100); n != 1000 || r.Len() != 1 || r.At(0) != (packet.SACKBlock{Left: 2000, Right: 6000}) {
		t.Fatalf("bridging add covered %d, blocks %v", n, r.b)
	}
	if r.Add(7000, 7000) != 0 || r.Add(8000, 7000) != 0 || r.Len() != 1 {
		t.Fatal("empty or inverted range was added")
	}
	if !r.Contains(2000, 6000) || r.Contains(1999, 2001) || r.Contains(5999, 6001) {
		t.Fatal("Contains")
	}
	if e := r.Absorb(1999); e != 1999 || r.Len() != 1 {
		t.Fatalf("edge short of the block absorbed it: edge %d", e)
	}
	if e := r.Absorb(2000); e != 6000 || r.Len() != 0 || r.Bytes() != 0 {
		t.Fatalf("edge touching the block: edge %d, %d blocks", e, r.Len())
	}
}

// FuzzRanges feeds arbitrary operation strings through the three-way
// comparison of TestRangesMatchReferences: four bytes of base, then three
// bytes per operation.
func FuzzRanges(f *testing.F) {
	f.Add([]byte{0xff, 0xff, 0xff, 0x00, 1, 10, 3, 1, 12, 2, 0, 1, 0, 1, 30, 4, 1, 26, 4, 0, 9, 0})
	f.Add([]byte{0, 0, 0, 0, 1, 4, 1, 1, 2, 1, 1, 3, 1, 0, 2, 0})
	f.Add([]byte{0x7f, 0xff, 0xff, 0x80, 1, 2, 8, 1, 1, 1, 1, 0, 1, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		rr := newRangesRun(t, binary.BigEndian.Uint32(data))
		edge := 0
		for data = data[4:]; len(data) >= 3 && edge < rangesSpan-200; data = data[3:] {
			lo := min(edge+50*int(data[1]%24), rangesSpan)
			hi := min(lo+50*int(data[2]%5), rangesSpan)
			if data[0]%5 > 0 {
				rr.add(lo, hi)
				continue
			}
			edge += 50 * int(data[0]/5%4)
			rr.advance(edge, lo, hi)
			edge = int(rr.oooEdge - rr.base)
		}
	})
}

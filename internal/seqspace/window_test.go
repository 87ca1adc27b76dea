package seqspace

import (
	"math/rand"
	"testing"
)

// refSendTimes is the table tcpstack.Sender kept before Window: a map from
// a segment's end-seq to its transmit time, looked up exactly on each new
// cumulative ACK and swept in full whenever the lookup hit.
type refSendTimes map[uint32]int64

func (m refSendTimes) put(end uint32, now int64) { m[end] = now }

func (m refSendTimes) karn(end uint32) { delete(m, end) }

func (m refSendTimes) sample(ack uint32) (int64, bool) {
	t, ok := m[ack]
	if !ok {
		return 0, false
	}
	delete(m, ack)
	for end := range m {
		if LEQ(end, ack) {
			delete(m, end)
		}
	}
	return t, true
}

// refLatPending is the table testbed.AP kept before Window: one map for
// every flow, keyed (flow, end-seq), bounded by a sweep of the ACKed flow
// once it held more than 4096 entries and by refusing entries past 65536.
type refLatPending map[refLatKey]int64

type refLatKey struct {
	flow int
	end  uint32
}

func (m refLatPending) data(flow int, end uint32, now int64) {
	if len(m) > 65536 {
		return
	}
	k := refLatKey{flow, end}
	if _, dup := m[k]; !dup {
		m[k] = now
	}
}

func (m refLatPending) ack(flow int, ack uint32) (int64, bool) {
	k := refLatKey{flow, ack}
	t, found := m[k]
	if found {
		delete(m, k)
	}
	if len(m) > 4096 {
		for kk := range m {
			if kk.flow == flow && LEQ(kk.end, ack) {
				delete(m, kk)
			}
		}
	}
	return t, found
}

// checkWindow asserts the structural invariant: strictly ascending keys.
func checkWindow[T any](t *testing.T, w *Window[T], ctx string, seed, op int) {
	t.Helper()
	for i := 1; i < w.Len(); i++ {
		if !LT(w.At(i-1).Seq, w.At(i).Seq) {
			t.Fatalf("%s seed %d op %d: keys %d, %d out of order at %d", ctx, seed, op, w.At(i-1).Seq, w.At(i).Seq, i)
		}
	}
}

// flight is one flow's segments on a fixed grid: segment i ends at
// iss + i*mss. sent counts segments put in flight, ack is the last
// cumulative ACK.
type flight struct {
	iss, ack uint32
	sent     int
}

const testMSS = 1448

func (f *flight) end(i int) uint32 { return f.iss + uint32(i)*testMSS }

// acked is how many whole segments the last ACK covers.
func (f *flight) acked() int { return int(f.ack-f.iss) / testMSS }

// nextAck draws a cumulative ACK at or beyond the last one, up to everything
// sent: on a segment boundary unless offGrid, then some bytes short of one.
func (f *flight) nextAck(rng *rand.Rand, reach int, offGrid bool) uint32 {
	hi := min(f.sent, f.acked()+reach)
	ack := f.end(f.acked() + rng.Intn(hi-f.acked()+1))
	if offGrid {
		ack -= uint32(1 + rng.Intn(testMSS-1))
	}
	f.ack = Max(f.ack, ack)
	return f.ack
}

// A Window driven as Sender.sent yields the RTT samples the map did, in the
// same order, under any mix of in-order, out-of-order and duplicate puts,
// Karn removals, and boundary and non-boundary cumulative ACKs.
func TestWindowMatchesSendTimesMap(t *testing.T) {
	for seed := 0; seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ref := refSendTimes{}
		var w Window[int64]
		f := flight{iss: testISS(seed, rng)}
		f.ack = f.iss
		samples := 0
		for op := 0; op < 400; op++ {
			now := int64(op)
			switch k := rng.Intn(20); {
			case k < 10: // a new segment leaves
				f.sent++
				ref.put(f.end(f.sent), now)
				if p := w.Put(f.end(f.sent)); p != nil {
					*p = now
				}
			case k < 12: // some segment again, in or just below the flight: out of order, mostly a duplicate
				end := f.end(f.acked() - 1 + rng.Intn(f.sent-f.acked()+2))
				ref.put(end, now)
				if p := w.Put(end); p != nil {
					*p = now
				} else if p := w.Find(end); p != nil {
					*p = now // the map's write to a held key is last-wins
				}
			case k < 14: // Karn: a retransmission forfeits the sample
				end := f.end(f.acked() + rng.Intn(f.sent-f.acked()+1))
				ref.karn(end)
				w.Remove(end)
			default: // a cumulative ACK, one time in four off a segment boundary
				ack := f.nextAck(rng, 8, rng.Intn(4) == 0)
				wantT, wantOK := ref.sample(ack)
				gotT, gotOK := w.PopThrough(ack)
				if gotOK != wantOK || gotT != wantT {
					t.Fatalf("seed %d op %d: ack %d sampled (%d, %v), map gave (%d, %v)", seed, op, ack, gotT, gotOK, wantT, wantOK)
				}
				if gotOK {
					samples++
				}
				if w.Len() > f.sent-f.acked() {
					t.Fatalf("seed %d op %d: window holds %d entries with %d segments in flight", seed, op, w.Len(), f.sent-f.acked())
				}
			}
			checkWindow(t, &w, "sendTimes", seed, op)
		}
		if samples < 20 {
			t.Fatalf("seed %d: only %d samples taken", seed, samples)
		}
	}
}

// One Window per flow driven as the AP's TCP-latency probe yields the
// samples the single (flow, end-seq) map did — including past the map's
// 4096-entry sweep threshold, which delayed ACKs cross quickly because
// every other entry is never matched exactly.
func TestWindowMatchesLatPendingMap(t *testing.T) {
	const flows = 6
	for seed := 0; seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ref := refLatPending{}
		var w [flows]Window[int64]
		var fl [flows]flight
		for i := range fl {
			fl[i].iss = testISS(seed+i, rng)
			fl[i].ack = fl[i].iss
		}
		ops, swept, samples := 500, false, 0
		if seed%100 == 0 {
			ops = 6000 // long enough for the map to pass 4096 entries and sweep for a while
		}
		for op := 0; op < ops; op++ {
			i, now := rng.Intn(flows), int64(op)
			f := &fl[i]
			switch k := rng.Intn(20); {
			case k < 11: // a burst of new data is forwarded
				for n := 1 + rng.Intn(4); n > 0; n-- {
					f.sent++
					ref.data(i, f.end(f.sent), now)
					if p := w[i].Put(f.end(f.sent)); p != nil {
						*p = now
					}
				}
			case k < 13: // a retransmission crosses the AP: in or just below the flight
				end := f.end(f.acked() - 1 + rng.Intn(f.sent-f.acked()+2))
				ref.data(i, end, now)
				if p := w[i].Put(end); p != nil {
					*p = now
				}
			default: // the client ACKs: a few segments on, a duplicate, now and then off the grid
				ack := f.nextAck(rng, 3, rng.Intn(16) == 0)
				swept = swept || len(ref) > 4096
				wantT, wantOK := ref.ack(i, ack)
				gotT, gotOK := w[i].PopThrough(ack)
				if gotOK != wantOK || gotT != wantT {
					t.Fatalf("seed %d op %d: flow %d ack %d sampled (%d, %v), map gave (%d, %v)", seed, op, i, ack, gotT, gotOK, wantT, wantOK)
				}
				if gotOK {
					samples++
				}
				if w[i].Len() > f.sent-f.acked() {
					t.Fatalf("seed %d op %d: window holds %d entries with %d segments in flight", seed, op, w[i].Len(), f.sent-f.acked())
				}
			}
			checkWindow(t, &w[i], "latPending", seed, op)
		}
		if samples < 20 {
			t.Fatalf("seed %d: only %d samples taken", seed, samples)
		}
		if ops > 500 && !swept {
			t.Fatalf("seed %d: the reference map never reached its sweep threshold", seed)
		}
	}
}

// Find, Remove, the ends and the pops agree with a sorted-slice model under
// random keys around the wrap.
func TestWindowMatchesSortedSlice(t *testing.T) {
	for seed := 0; seed < propertySeeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		base := testISS(seed, rng)
		var w Window[uint32]
		var model []uint32 // ascending in sequence order
		find := func(seq uint32) (int, bool) {
			for i, k := range model {
				if k == seq {
					return i, true
				}
				if LT(seq, k) {
					return i, false
				}
			}
			return len(model), false
		}
		for op := 0; op < 300; op++ {
			seq := base + uint32(rng.Intn(64))*100
			i, held := find(seq)
			switch k := rng.Intn(10); {
			case k < 5:
				p := w.Put(seq)
				if (p == nil) != held {
					t.Fatalf("seed %d op %d: Put(%d) = %v, held %v", seed, op, seq, p, held)
				}
				if p != nil {
					*p = ^seq
					model = append(model[:i], append([]uint32{seq}, model[i:]...)...)
				}
			case k < 7:
				if got := w.Remove(seq); got != held {
					t.Fatalf("seed %d op %d: Remove(%d) = %v, held %v", seed, op, seq, got, held)
				}
				if held {
					model = append(model[:i], model[i+1:]...)
				}
			case k < 8 && len(model) > 0:
				if f := w.Front(); f.Seq != model[0] {
					t.Fatalf("seed %d op %d: Front = %d, want %d", seed, op, f.Seq, model[0])
				}
				if e := w.PopFront(); e.Seq != model[0] || e.V != ^model[0] {
					t.Fatalf("seed %d op %d: PopFront = %+v, want %d", seed, op, e, model[0])
				}
				model = model[1:]
			case k < 9 && len(model) > 0:
				if e := w.PopBack(); e.Seq != model[len(model)-1] {
					t.Fatalf("seed %d op %d: PopBack = %+v, want %d", seed, op, e, model[len(model)-1])
				}
				model = model[:len(model)-1]
			default:
				if p := w.Find(seq); (p != nil) != held || (held && *p != ^seq) {
					t.Fatalf("seed %d op %d: Find(%d) = %v, held %v", seed, op, seq, p, held)
				}
			}
			if w.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, w.Len(), len(model))
			}
			for j, want := range model {
				if w.At(j).Seq != want {
					t.Fatalf("seed %d op %d: At(%d) = %d, want %d", seed, op, j, w.At(j).Seq, want)
				}
			}
		}
		w.Reset()
		if w.Len() != 0 {
			t.Fatal("Reset left entries")
		}
	}
}

// A corrupted header can present a key that is after the back and yet
// before the front. Filed at the back it would close a cycle — front <
// wild < back' < front — behind which PopThrough never reaches the live
// keys again: the window would stop sampling and grow for ever. Put
// refuses it; every other stray key has a place and is retired in turn.
func TestWindowRefusesKeyOutsideTheOrder(t *testing.T) {
	var w Window[int]
	put := func(seq uint32) bool {
		p := w.Put(seq)
		if p != nil {
			*p = int(seq)
		}
		return p != nil
	}
	var live uint32 = 5000
	for seq := live; seq < live+10*100; seq += 100 {
		put(seq)
	}
	ahead := live + 1<<30 // far ahead of the live keys: files at the back
	if !put(ahead) {
		t.Fatal("a key ahead of everything was refused")
	}
	// After `ahead`, before the live keys: no place in the order.
	if wild := ahead + 1<<30 + 1<<29; put(wild) {
		t.Fatalf("key %d accepted: after the back %d and before the front %d", wild, ahead, w.Front().Seq)
	}
	// Far behind everything: files at the front, retired by the next ACK.
	if !put(live - 1<<29) {
		t.Fatal("a key behind everything was refused")
	}
	checkWindow(t, &w, "wild", 0, 0)
	for seq := live + 10*100; seq < live+20*100; seq += 100 {
		if !put(seq) {
			t.Fatalf("live key %d refused", seq)
		}
		if v, ok := w.PopThrough(seq - 500); !ok || v != int(seq-500) {
			t.Fatalf("ack %d: sample (%d, %v)", seq-500, v, ok)
		}
		checkWindow(t, &w, "wild", 0, int(seq))
	}
	if w.Len() != 5+1 {
		t.Fatalf("window holds %d entries, want the 5 in flight and the one ahead", w.Len())
	}
}

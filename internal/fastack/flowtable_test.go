package fastack

import (
	"strings"
	"testing"

	"repro/internal/packet"
)

// hasHole reports whether upstream losses left gaps below seqHigh.
func (f *flowState) hasHole() bool { return f.above.Len() > 0 }

// TestHoleHandlingTable drives the holes-vector machinery (addAbove /
// advanceExp / hasHole) through named scenarios: each case applies a
// sequence of out-of-order arrivals and hole fills and checks where
// seqExp lands and whether holes remain.
func TestHoleHandlingTable(t *testing.T) {
	type above struct{ left, right uint32 }
	cases := []struct {
		name    string
		above   []above  // out-of-order ranges received beyond seqExp
		fills   []uint32 // successive advanceExp(end) calls (hole fills)
		wantExp uint32
		wantHol bool
	}{
		{
			name:    "single hole filled exactly",
			above:   []above{{2000, 3000}},
			fills:   []uint32{2000}, // retransmit of 1000..2000 arrives
			wantExp: 3000,
		},
		{
			name:    "fill bridges two merged ranges",
			above:   []above{{2000, 3000}, {3000, 4000}},
			fills:   []uint32{2000},
			wantExp: 4000,
		},
		{
			name:    "overlapping ranges merge",
			above:   []above{{2000, 3500}, {3000, 4000}},
			fills:   []uint32{2000},
			wantExp: 4000,
		},
		{
			name:    "second hole survives the first fill",
			above:   []above{{2000, 3000}, {5000, 6000}},
			fills:   []uint32{2000},
			wantExp: 3000,
			wantHol: true,
		},
		{
			name:    "two fills drain two holes",
			above:   []above{{2000, 3000}, {5000, 6000}},
			fills:   []uint32{2000, 5000},
			wantExp: 6000,
		},
		{
			name:    "fill below current exp is a no-op",
			above:   []above{{5000, 6000}},
			fills:   []uint32{500},
			wantExp: 1000,
			wantHol: true,
		},
		{
			name:    "duplicate range collapses to one hole",
			above:   []above{{2000, 3000}, {2000, 3000}, {2000, 3000}},
			fills:   []uint32{2000},
			wantExp: 3000,
		},
		{
			name:    "fill overshooting into a range absorbs it",
			above:   []above{{2000, 3000}},
			fills:   []uint32{2500},
			wantExp: 3000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFlow()
			f.initAt(1000)
			for _, a := range tc.above {
				f.addAbove(a.left, a.right)
			}
			for _, end := range tc.fills {
				f.advanceExp(end)
			}
			if f.seqExp != tc.wantExp {
				t.Errorf("seqExp = %d, want %d", f.seqExp, tc.wantExp)
			}
			if f.hasHole() != tc.wantHol {
				t.Errorf("hasHole = %v, want %v (above=%v)", f.hasHole(), tc.wantHol, f.above)
			}
		})
	}
}

// TestAdvertisedWindowTable pins rx'_win = rx_win − out_bytes with the
// queue-budget clamp (§5.5.2 plus the driver-queue guard) across the
// boundary cases.
func TestAdvertisedWindowTable(t *testing.T) {
	cases := []struct {
		name                     string
		clientWindow             int
		seqTCP, seqFack, seqHigh uint32
		budget                   int
		want                     int
	}{
		{name: "no outstanding data", clientWindow: 1000, seqTCP: 0, seqFack: 0, seqHigh: 0, want: 1000},
		{name: "outstanding subtracts", clientWindow: 1000, seqTCP: 0, seqFack: 600, seqHigh: 600, want: 400},
		{name: "exactly full", clientWindow: 1000, seqTCP: 0, seqFack: 1000, seqHigh: 1000, want: 0},
		{name: "overfull clamps to zero", clientWindow: 1000, seqTCP: 0, seqFack: 1000, seqHigh: 5000, want: 0},
		{name: "budget binds below client window", clientWindow: 100000, seqTCP: 0, seqFack: 100, seqHigh: 600, budget: 800, want: 300},
		{name: "budget exhausted", clientWindow: 100000, seqTCP: 0, seqFack: 100, seqHigh: 600, budget: 500, want: 0},
		{name: "budget slack keeps client bound", clientWindow: 700, seqTCP: 0, seqFack: 600, seqHigh: 600, budget: 100000, want: 100},
		{name: "zero budget disables the clamp", clientWindow: 100000, seqTCP: 0, seqFack: 0, seqHigh: 90000, budget: 0, want: 10000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFlow()
			f.initAt(0)
			f.clientWindow = tc.clientWindow
			f.seqTCP = tc.seqTCP
			f.seqFack = tc.seqFack
			f.seqHigh = tc.seqHigh
			if got := f.advertisedWindow(tc.budget); got != tc.want {
				t.Errorf("advertisedWindow(%d) = %d, want %d", tc.budget, got, tc.want)
			}
		})
	}
}

// TestCacheEvictionTable exercises the retransmission cache's byte-limit
// eviction: oldest-first, duplicate inserts free, the newest entry always
// survives, and accounting stays exact.
func TestCacheEvictionTable(t *testing.T) {
	type ins struct {
		seq     uint32
		n       int
		evicted int // bytes the insert must report evicted
	}
	cases := []struct {
		name      string
		limit     int
		inserts   []ins
		wantSeqs  []uint32 // surviving cache entries, in order
		wantBytes int
	}{
		{
			name:      "under limit keeps everything",
			limit:     5000,
			inserts:   []ins{{1000, 1000, 0}, {2000, 1000, 0}, {3000, 1000, 0}},
			wantSeqs:  []uint32{1000, 2000, 3000},
			wantBytes: 3000,
		},
		{
			name:      "overflow evicts oldest first",
			limit:     2000,
			inserts:   []ins{{1000, 1000, 0}, {2000, 1000, 0}, {3000, 1000, 1000}},
			wantSeqs:  []uint32{2000, 3000},
			wantBytes: 2000,
		},
		{
			name:      "duplicate insert is free",
			limit:     2000,
			inserts:   []ins{{1000, 1000, 0}, {2000, 1000, 0}, {1000, 1000, 0}},
			wantSeqs:  []uint32{1000, 2000},
			wantBytes: 2000,
		},
		{
			name:      "oversized segment evicts all but itself",
			limit:     1500,
			inserts:   []ins{{1000, 1000, 0}, {2000, 1000, 1000}, {3000, 2000, 1000}},
			wantSeqs:  []uint32{3000},
			wantBytes: 2000, // over limit, but the newest entry never self-evicts
		},
		{
			name:      "zero limit disables eviction",
			limit:     0,
			inserts:   []ins{{1000, 1000, 0}, {2000, 1000, 0}, {3000, 1000, 0}, {4000, 1000, 0}},
			wantSeqs:  []uint32{1000, 2000, 3000, 4000},
			wantBytes: 4000,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newTestFlow()
			f.initAt(0)
			for _, in := range tc.inserts {
				if got := f.cacheInsert(seg(in.seq, in.n), tc.limit); got != in.evicted {
					t.Errorf("insert seq=%d evicted %d bytes, want %d", in.seq, got, in.evicted)
				}
			}
			if f.cacheBytes != tc.wantBytes {
				t.Errorf("cacheBytes = %d, want %d", f.cacheBytes, tc.wantBytes)
			}
			if f.cache.Len() != len(tc.wantSeqs) {
				t.Fatalf("cache holds %d entries, want %d", f.cache.Len(), len(tc.wantSeqs))
			}
			for i, want := range tc.wantSeqs {
				if f.cache.At(i).Seq != want {
					t.Errorf("cache[%d].seq = %d, want %d", i, f.cache.At(i).Seq, want)
				}
			}
		})
	}
}

// TestCacheRange covers the SACK-repair lookup where it lives, in
// retransmitFromCache: a duplicate ACK at left whose lowest SACK edge is
// right repairs the cached segments overlapping the half-open [left,
// right), plus — SACK or no SACK — the segment starting at left itself.
func TestCacheRange(t *testing.T) {
	a := New(DefaultConfig(), nil)
	f := newTestFlow()
	f.initAt(0)
	for _, s := range []uint32{1000, 2000, 3000, 4000} {
		f.cacheInsert(seg(s, 1000), 0)
	}
	cases := []struct {
		name        string
		left, right uint32
		want        []uint32
	}{
		{"full span", 1000, 5000, []uint32{1000, 2000, 3000, 4000}},
		{"interior", 2000, 4000, []uint32{2000, 3000}},
		{"partial overlap on both edges", 2500, 3500, []uint32{2000, 3000}},
		{"empty window", 2000, 2000, []uint32{2000}}, // the ACKed segment alone
		{"before all entries", 0, 1000, nil},
		{"after all entries", 5000, 9000, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a.cliScratch = a.cliScratch[:0]
			var disp Disposition
			sack := []packet.SACKBlock{{Left: tc.right, Right: tc.right + 1000}}
			if n := a.retransmitFromCache(&disp, f, tc.left, sack); n != len(tc.want) || len(disp.ToClient) != n {
				t.Fatalf("ack %d, SACK from %d: repaired %d segments (%d queued), want %d",
					tc.left, tc.right, n, len(disp.ToClient), len(tc.want))
			}
			for i, d := range disp.ToClient {
				if d.TCP.Seq != tc.want[i] {
					t.Errorf("segment %d: seq %d, want %d", i, d.TCP.Seq, tc.want[i])
				}
			}
		})
	}
}

// TestSACKDrivenLocalRetransmit covers the SACK arm of
// retransmitFromCache: holes between the cumulative ACK and the SACKed
// blocks are repaired from the cache, SACK-covered data is not resent,
// and the per-event bound holds.
func TestSACKDrivenLocalRetransmit(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupAckThreshold = 2
	h := newHarness(cfg)
	h.handshake(t)
	for i := uint32(0); i < 5; i++ {
		d := data(1000 + i*segLen)
		h.a.HandleDownlink(d)
		h.a.HandleWirelessAck(d, true)
	}
	// Client: has 1000 and 4000..6000, missing 2000 and 3000.
	sacked := []packet.SACKBlock{{Left: 4000, Right: 6000}}
	mkDup := func() *packet.Datagram {
		d := clientAck(2000, 4096)
		d.TCP.SACK = sacked
		return d
	}
	h.a.HandleUplink(mkDup())
	h.a.HandleUplink(mkDup()) // dup #1
	disp := h.a.HandleUplink(mkDup())
	var seqs []uint32
	for _, d := range disp.ToClient {
		seqs = append(seqs, d.TCP.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 2000 || seqs[1] != 3000 {
		t.Fatalf("retransmitted %v, want [2000 3000]", seqs)
	}
	if got := h.a.Stats().LocalRetransmits; got != 2 {
		t.Fatalf("LocalRetransmits = %d, want 2", got)
	}
}

// TestAgentHousekeeping covers the small API surface around the flow
// table: zero-value config defaults, Export on an unknown flow, Drop, and
// the debug String rendering.
func TestAgentHousekeeping(t *testing.T) {
	a := New(Config{}, nil)
	if a.cfg.CacheLimitBytes != 4<<20 || a.cfg.DupAckThreshold != 2 ||
		a.cfg.RtxGuard == 0 || a.cfg.IdleExpiry == 0 {
		t.Fatalf("zero-value config not defaulted: %+v", a.cfg)
	}
	if _, ok := a.Export(data(1000).Flow()); ok {
		t.Fatal("Export of an untracked flow succeeded")
	}

	h := newHarness(DefaultConfig())
	h.handshake(t)
	h.a.HandleDownlink(data(1000))
	key := data(1000).Flow()
	if s := h.a.flows[key].String(); !strings.Contains(s, "exp=2000") {
		t.Fatalf("String() = %q, want it to render exp=2000", s)
	}
	h.a.Drop(key)
	if h.a.FlowCount() != 0 {
		t.Fatalf("Drop left %d flows", h.a.FlowCount())
	}
}

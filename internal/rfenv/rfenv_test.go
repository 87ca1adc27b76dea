package rfenv_test

import (
	"testing"

	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// TestTraceDeterminism pins the per-(seed, channel) independence
// contract: a channel's trace must not depend on which other channels the
// set covers or in which order samples are taken.
func TestTraceDeterminism(t *testing.T) {
	opt := rfenv.DefaultTraceOptions()
	a := rfenv.NewTraceSet(7, []int{36, 52, 149}, opt)
	b := rfenv.NewTraceSet(7, []int{52}, opt)

	// Query a forward, b backward, over the same grid across 12 hours.
	var grid []sim.Time
	for ts := sim.Time(0); ts < 12*sim.Hour; ts += 7 * sim.Minute {
		grid = append(grid, ts)
	}
	fwd := make([]float64, len(grid))
	bwd := make([]float64, len(grid))
	for i, ts := range grid {
		fwd[i] = a.Occupancy(52, ts)
	}
	for i := len(grid) - 1; i >= 0; i-- {
		bwd[i] = b.Occupancy(52, grid[i])
	}
	for i := range fwd {
		if fwd[i] != bwd[i] {
			t.Fatalf("sample %d: forward big set %v != backward small set %v", i, fwd[i], bwd[i])
		}
	}

	// A different seed must produce a different trace.
	c := rfenv.NewTraceSet(8, []int{52}, opt)
	same := true
	for ts := sim.Time(0); ts < 12*sim.Hour; ts += 7 * sim.Minute {
		if c.Occupancy(52, ts) != a.Occupancy(52, ts) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical traces")
	}
}

// TestTraceShape checks the on-off renewal shape: occupancy stays inside
// [0,1], burst levels stay inside [OccLo, OccHi], and a day of samples
// sees both idle gaps and bursts on a default-parameter channel.
func TestTraceShape(t *testing.T) {
	opt := rfenv.DefaultTraceOptions()
	ts := rfenv.NewTraceSet(3, rfenv.Default5GHzChannels(), opt)
	idle, busy := 0, 0
	for _, ch := range ts.Channels() {
		for at := sim.Time(0); at < sim.Day; at += sim.Minute {
			o := ts.Occupancy(ch, at)
			switch {
			case o == 0:
				idle++
			case o >= opt.OccLo && o <= opt.OccHi:
				busy++
			default:
				t.Fatalf("chan %d at %v: occupancy %v outside {0} ∪ [%v,%v]", ch, at, o, opt.OccLo, opt.OccHi)
			}
		}
	}
	if idle == 0 || busy == 0 {
		t.Fatalf("degenerate trace: idle=%d busy=%d samples", idle, busy)
	}
	// Mostly-idle by construction (MeanOff >> MeanOn).
	if busy > idle {
		t.Fatalf("band busier than idle (busy=%d idle=%d) under mostly-idle defaults", busy, idle)
	}
	if ts.Occupancy(999, sim.Hour) != 0 {
		t.Fatal("uncovered channel must sample 0")
	}
	if ts.Occupancy(36, -sim.Second) != 0 {
		t.Fatal("negative time must sample 0")
	}
}

// TestNoiseMap checks the planner-facing view: a row by 5 GHz sub-channel
// position whose every entry is that channel's Occupancy, nil exactly when
// the band is quiet.
func TestNoiseMap(t *testing.T) {
	chans := rfenv.Default5GHzChannels()
	ts := rfenv.NewTraceSet(5, chans, rfenv.DefaultTraceOptions())
	sawEntries, sawQuiet := false, false
	for at := sim.Time(0); at < 12*sim.Hour; at += 13 * sim.Minute {
		row := ts.NoiseMap(at)
		if row == nil {
			sawQuiet = true
			for _, ch := range chans {
				if got := ts.Occupancy(ch, at); got != 0 {
					t.Fatalf("nil row at %v, but ch %d is occupied (%v)", at, ch, got)
				}
			}
			continue
		}
		if len(row) != len(chans) {
			t.Fatalf("row has %d entries, the band %d sub-channels", len(row), len(chans))
		}
		occupied := false
		for i, v := range row {
			if v < 0 || v > 1 {
				t.Fatalf("noise row value %v out of [0,1]", v)
			}
			if got := ts.Occupancy(chans[i], at); got != v {
				t.Fatalf("row[%d] = %v != ch %d occupancy %v", i, v, chans[i], got)
			}
			occupied = occupied || v > 0
		}
		if !occupied {
			t.Fatalf("a quiet band at %v came back as a row of zeros, not nil", at)
		}
		sawEntries = true
	}
	if !sawEntries || !sawQuiet {
		t.Fatalf("12 hours: occupied sample seen %v, quiet band seen %v; want both", sawEntries, sawQuiet)
	}
}

// TestQuarantineWindow pins the NOP semantics: a struck sub-channel is
// blocked for exactly [strike, strike+NOPDuration) — still blocked one
// microsecond before expiry, free exactly at it — and a second strike
// extends, never shortens.
func TestQuarantineWindow(t *testing.T) {
	q := rfenv.NewQuarantine()
	const t0 = 2 * sim.Hour
	ch52, _ := spectrum.ChannelAt(spectrum.Band5, 52, spectrum.W20)
	ch60, _ := spectrum.ChannelAt(spectrum.Band5, 60, spectrum.W20)
	if struck := q.Strike([]int{52}, t0); struck != spectrum.Sub20Mask(spectrum.Band5, 52) || struck != q.Mask(t0) {
		t.Fatalf("Strike returned mask %#x, Mask %#x, want ch52's bit", struck, q.Mask(t0))
	}
	if !q.Blocked(ch52, t0) || !q.Blocked(ch52, t0+rfenv.NOPDuration-1) {
		t.Fatal("not blocked inside the NOP window")
	}
	if q.Blocked(ch52, t0+rfenv.NOPDuration) {
		t.Fatal("still blocked exactly at expiry — the window must be half-open")
	}
	// Re-strike mid-window: expiry moves to the later strike's.
	q.Strike([]int{52}, t0+10*sim.Minute)
	if !q.Blocked(ch52, t0+rfenv.NOPDuration+9*sim.Minute) {
		t.Fatal("re-strike did not extend the NOP")
	}
	// A strike never shortens an existing window.
	q2 := rfenv.NewQuarantine()
	q2.Strike([]int{60}, t0+20*sim.Minute)
	q2.Strike([]int{60}, t0)
	if !q2.Blocked(ch60, t0+20*sim.Minute+rfenv.NOPDuration-1) {
		t.Fatal("earlier strike shortened a later window")
	}
	// A number that is no US 5 GHz 20 MHz channel strikes nothing.
	if q3 := rfenv.NewQuarantine(); q3.Strike([]int{0, 38, 7}, t0) != 0 || q3.Mask(t0) != 0 {
		t.Fatal("off-plan sub-channel numbers were quarantined")
	}
}

// TestQuarantinePropagation pins bonded-width propagation: striking one
// 20 MHz sub-channel blocks every 5 GHz channel whose bond covers it, at
// every width, and nothing else.
func TestQuarantinePropagation(t *testing.T) {
	q := rfenv.NewQuarantine()
	at := sim.Hour
	q.Strike([]int{52}, at)

	blocked := 0
	for _, w := range []spectrum.Width{spectrum.W20, spectrum.W40, spectrum.W80, spectrum.W160} {
		for _, c := range spectrum.Channels(spectrum.Band5, w, true) {
			covers := false
			for _, s := range c.Sub20Numbers() {
				if s == 52 {
					covers = true
				}
			}
			if got := q.Blocked(c, at); got != covers {
				t.Fatalf("chan %d width %v: Blocked=%v, covers struck sub=%v", c.Number, w, got, covers)
			}
			if covers {
				blocked++
			}
		}
	}
	// Exactly one channel per width covers sub 52: w20 52, w40 54, w80 58,
	// w160 50.
	if blocked != 4 {
		t.Fatalf("expected 4 covering channels across widths, found %d", blocked)
	}
	// A channel the US plan does not have is still caught: by the numbers
	// its width would span, or by its own number under a malformed width.
	for _, c := range []spectrum.Channel{
		{Band: spectrum.Band5, Number: 52},
		{Band: spectrum.Band5, Number: 52, Width: -40},
		{Band: spectrum.Band5, Number: 50, Width: spectrum.W40}, // would span 48+52
	} {
		if !q.Blocked(c, at) {
			t.Fatalf("off-plan %+v inside the struck range not reported quarantined", c)
		}
	}
	if q.Blocked(spectrum.Channel{Band: spectrum.Band5, Number: 56}, at) {
		t.Fatal("off-plan channel outside the struck range reported quarantined")
	}
	// Other bands can never be quarantined.
	for _, c := range spectrum.Channels(spectrum.Band2G4, spectrum.W20, true) {
		if q.Blocked(c, at) {
			t.Fatal("2.4 GHz channel reported quarantined")
		}
	}
}

// TestQuarantineBlockedDoesNotAllocate: install guards, fallback picks and
// the NOP audit ask this per AP per pass.
func TestQuarantineBlockedDoesNotAllocate(t *testing.T) {
	q := rfenv.NewQuarantine()
	q.Strike([]int{52, 56}, sim.Hour)
	c160, _ := spectrum.ChannelAt(spectrum.Band5, 114, spectrum.W160)
	c80, _ := spectrum.ChannelAt(spectrum.Band5, 58, spectrum.W80)
	hits := 0
	if n := testing.AllocsPerRun(100, func() {
		if q.Blocked(c160, sim.Hour) {
			hits++
		}
		if q.Blocked(c80, sim.Hour) {
			hits++
		}
	}); n != 0 || hits != 101 {
		t.Fatalf("Blocked: %v allocations per call pair, %d hits (want 0 and 101)", n, hits)
	}
}

func TestQuarantineMaskAndExpiry(t *testing.T) {
	q := rfenv.NewQuarantine()
	struck := q.Strike([]int{100, 104}, 0)
	want := spectrum.Sub20Mask(spectrum.Band5, 100) | spectrum.Sub20Mask(spectrum.Band5, 104)
	if struck != want || q.Mask(sim.Minute) != want {
		t.Fatalf("Strike = %#x, Mask = %#x, want ch 100 and 104 (%#x)", struck, q.Mask(sim.Minute), want)
	}
	// Reading is free of side effects: asking about a later instant does
	// not forget a window that is still open at an earlier one.
	if q.Mask(rfenv.NOPDuration) != 0 {
		t.Fatal("Mask nonzero after expiry")
	}
	if q.Mask(sim.Minute) != want {
		t.Fatal("reading the table after expiry dropped a window still open at an earlier instant")
	}
}

func TestStormScheduleDeterministicAndShaped(t *testing.T) {
	const horizon = 30 * sim.Day
	a := rfenv.StormSchedule(42, horizon, 2)
	b := rfenv.StormSchedule(42, horizon, 2)
	if len(a) == 0 {
		t.Fatal("no storms in 30 days at 2/day")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("storm %d differs between identical calls", i)
		}
	}
	// Poisson at 2/day over 30 days: mean 60; accept a wide band.
	if len(a) < 30 || len(a) > 100 {
		t.Fatalf("storm count %d implausible for 2/day over 30 days", len(a))
	}
	last := sim.Time(-1)
	for _, s := range a {
		if s.At <= last || s.At >= horizon {
			t.Fatalf("storm at %v out of order or beyond horizon", s.At)
		}
		last = s.At
		subs := s.Subs()
		if len(subs) == 0 {
			t.Fatalf("storm %+v strikes nothing", s)
		}
		for _, n := range subs {
			if !spectrum.IsDFS20(n) || n < s.LowSub || n > s.HighSub {
				t.Fatalf("storm %+v struck invalid sub %d", s, n)
			}
		}
	}
	if diff := rfenv.StormSchedule(43, horizon, 2); len(diff) == len(a) && diff[0] == a[0] {
		t.Fatal("different seeds produced the same schedule head")
	}
	if rfenv.StormSchedule(1, horizon, 0) != nil || rfenv.StormSchedule(1, 0, 2) != nil {
		t.Fatal("degenerate schedules must be nil")
	}
}

// TestStormSubsSkipNonDFS: a range reaching into non-DFS spectrum only
// strikes its DFS members — radar detection does not exist elsewhere.
func TestStormSubsSkipNonDFS(t *testing.T) {
	s := rfenv.Storm{LowSub: 36, HighSub: 64}
	for _, n := range s.Subs() {
		if n < 52 {
			t.Fatalf("non-DFS sub %d struck", n)
		}
	}
	got := rfenv.Storm{LowSub: 100, HighSub: 112}.Subs()
	want := []int{100, 104, 108, 112}
	if len(got) != len(want) {
		t.Fatalf("Subs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Subs = %v, want %v", got, want)
		}
	}
}

func TestDefault5GHzChannels(t *testing.T) {
	chans := rfenv.Default5GHzChannels()
	if len(chans) != 25 {
		t.Fatalf("expected the 25 US 5 GHz 20MHz channels, got %d", len(chans))
	}
}

package turboca

import (
	"testing"

	"repro/internal/spectrum"
)

// Regression tests for ACC's no-admissible-candidate fallback. A malformed
// per-AP width cap (0, i.e. narrower than every channel — only reachable on
// unsanitized inputs) filters out every candidate; the old code then stayed
// on p.current unconditionally, retaining an 80 MHz channel a 0-width cap
// forbids, or — worse — a DFS channel with clients associated (§4.5.2).
// The fix stays put only when the current channel is admissible and
// otherwise falls back to the best narrowest non-DFS candidate.

func fallbackInput(current spectrum.Channel, hasClients bool) Input {
	return Input{Band: spectrum.Band5, AllowDFS: true, APs: []APView{{
		ID:         1,
		Current:    current,
		MaxWidth:   0, // malformed cap: every candidate is wider
		HasClients: hasClients,
		Load:       1,
		WidthLoad:  [4]float64{1},
	}}}
}

func TestAccFallbackDropsOverWideCurrent(t *testing.T) {
	cur, ok := spectrum.ChannelAt(spectrum.Band5, 42, spectrum.W80)
	if !ok {
		t.Fatal("channel 42/80 not found")
	}
	p := newPlanner(DefaultConfig(), fallbackInput(cur, true))
	got := p.acc(0)
	if got == spectrum.None {
		t.Fatal("acc returned no channel; want a narrow fallback")
	}
	ch := got.Channel()
	if ch == cur {
		t.Fatalf("acc stayed on %v, which is wider than the AP's cap", cur)
	}
	if ch.Width != spectrum.W20 {
		t.Errorf("fallback %v is not the narrowest width", ch)
	}
	if ch.DFS {
		t.Errorf("fallback %v is DFS for an AP with clients", ch)
	}
}

func TestAccFallbackVacatesDFSWithClients(t *testing.T) {
	cur, ok := spectrum.ChannelAt(spectrum.Band5, 52, spectrum.W20)
	if !ok {
		t.Fatal("channel 52/20 not found")
	}
	if !cur.DFS {
		t.Fatalf("channel %v expected to be DFS", cur)
	}
	p := newPlanner(DefaultConfig(), fallbackInput(cur, true))
	got := p.acc(0)
	if got == spectrum.None {
		t.Fatal("acc returned no channel; want a non-DFS fallback")
	}
	ch := got.Channel()
	if ch == cur || ch.DFS {
		t.Fatalf("acc kept clients on DFS: got %v from current %v", ch, cur)
	}
}

func TestAccFallbackAssignsGreenfield(t *testing.T) {
	// No current channel at all: the fallback must still produce an
	// assignment rather than leaving the AP serving nothing.
	p := newPlanner(DefaultConfig(), fallbackInput(spectrum.Channel{}, false))
	got := p.acc(0)
	if got == spectrum.None {
		t.Fatal("acc left a greenfield AP unassigned")
	}
	if ch := got.Channel(); ch.Width != spectrum.W20 || ch.DFS {
		t.Errorf("greenfield fallback = %v, want narrowest non-DFS", ch)
	}
}

// TestAccStaysPutWhenAdmissible pins the unchanged behavior: with a valid
// cap the candidate set is never empty, and an AP already on its best
// channel keeps it.
func TestAccStaysPutWhenAdmissible(t *testing.T) {
	cur, _ := spectrum.ChannelAt(spectrum.Band5, 36, spectrum.W20)
	in := fallbackInput(cur, true)
	in.APs[0].MaxWidth = spectrum.W20
	p := newPlanner(DefaultConfig(), in)
	if got := p.acc(0); got == spectrum.None {
		t.Fatal("acc returned no channel with a valid cap")
	}
}

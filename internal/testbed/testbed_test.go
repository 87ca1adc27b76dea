package testbed

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
)

// run executes a testbed and returns it; durations are kept short so the
// full suite stays fast, with warmup trimmed accordingly.
func run(t *testing.T, mutate func(*Options)) (*Testbed, sim.Time) {
	t.Helper()
	opt := DefaultOptions()
	// Baseline TCP ramps slowly through the shallow per-STA queues, so
	// give runs enough post-warmup steady state to measure.
	opt.Warmup = 2 * sim.Second
	if mutate != nil {
		mutate(&opt)
	}
	dur := 8 * sim.Second
	tb := New(opt)
	tb.Run(dur)
	return tb, dur
}

func aggregate(tb *Testbed, dur sim.Time) float64 {
	total := 0.0
	for _, c := range tb.Clients {
		total += c.GoodputMbps(dur)
	}
	return total
}

func TestBaselineDeliversTraffic(t *testing.T) {
	tb, dur := run(t, func(o *Options) { o.ClientsPerAP = 5 })
	total := aggregate(tb, dur)
	if total < 100 {
		t.Fatalf("baseline aggregate %f Mbps, expected hundreds", total)
	}
	for i, c := range tb.Clients {
		if c.GoodputMbps(dur) <= 0 {
			t.Fatalf("client %d starved", i)
		}
	}
	// TCP state must be sane: no runaway retransmissions on this medium.
	for i, snd := range tb.Senders {
		st := snd.TCP.Stats()
		if st.BytesAcked == 0 {
			t.Fatalf("flow %d never acked", i)
		}
	}
}

func TestFastACKOutperformsBaseline(t *testing.T) {
	// The paper's headline (Fig 16): FastACK wins under multi-client
	// contention. Identical seeds and channel realisations.
	var tput [2]float64
	var agg [2]float64
	for i, mode := range []Mode{Baseline, FastACK} {
		tb, dur := run(t, func(o *Options) {
			o.ClientsPerAP = 10
			o.APModes = []Mode{mode}
			o.BadHintRate = 0.015
		})
		tput[i] = aggregate(tb, dur)
		agg[i] = tb.AggAP[0].Mean()
	}
	if tput[1] <= tput[0] {
		t.Fatalf("FastACK %f <= baseline %f Mbps", tput[1], tput[0])
	}
	if agg[1] <= agg[0] {
		t.Fatalf("FastACK aggregation %f <= baseline %f", agg[1], agg[0])
	}
}

func TestLatencyGapGrowsWithClients(t *testing.T) {
	// Fig 10: TCP latency exceeds 802.11 latency, and the medium gets
	// slower as the client count rises.
	gapAt := func(n int) (l80211, ltcp float64) {
		tb, _ := run(t, func(o *Options) { o.ClientsPerAP = n })
		return tb.Lat80211.Mean(), tb.LatTCP.Mean()
	}
	s5, t5 := gapAt(5)
	s20, t20 := gapAt(20)
	if t5 < s5 || t20 < s20 {
		t.Fatalf("TCP latency below 802.11 latency: %f/%f %f/%f", s5, t5, s20, t20)
	}
	if t20 <= t5 {
		t.Fatalf("TCP latency did not grow with clients: %f -> %f", t5, t20)
	}
}

func TestCwndTraces(t *testing.T) {
	tb, _ := run(t, func(o *Options) {
		o.ClientsPerAP = 4
		o.APModes = []Mode{FastACK}
	})
	for i, snd := range tb.Senders {
		if len(snd.CwndTrace) == 0 {
			t.Fatalf("flow %d has no cwnd trace", i)
		}
		last := snd.CwndTrace[len(snd.CwndTrace)-1]
		if last.Segments <= 0 || last.Segments > tb.Opt.TCP.MaxCwnd {
			t.Fatalf("flow %d cwnd %d out of range", i, last.Segments)
		}
	}
}

func TestUDPTrafficMode(t *testing.T) {
	// Oversubscribed CBR: offered load beyond the medium's capacity keeps
	// the driver queues full, which is why UDP is Fig 15's aggregation
	// upper bound.
	tb, dur := run(t, func(o *Options) {
		o.ClientsPerAP = 5
		o.Traffic = UDPBulk
		o.UDPRateMbps = 150
	})
	for i, c := range tb.Clients {
		got := c.GoodputMbps(dur)
		if got <= 5 || got > 155 {
			t.Fatalf("UDP client %d goodput %f, offered 150", i, got)
		}
	}
	// UDP aggregates approach the BA window (Fig 15's upper bound).
	if tb.AggAP[0].Mean() < 30 {
		t.Fatalf("UDP mean aggregate %f", tb.AggAP[0].Mean())
	}
}

func TestMultiAPSharing(t *testing.T) {
	tb, dur := run(t, func(o *Options) {
		o.APModes = []Mode{Baseline, Baseline}
		o.ClientsPerAP = 4
	})
	var ap1, ap2 float64
	for _, c := range tb.Clients {
		if c.AP.Index == 0 {
			ap1 += c.GoodputMbps(dur)
		} else {
			ap2 += c.GoodputMbps(dur)
		}
	}
	if ap1 <= 0 || ap2 <= 0 {
		t.Fatalf("an AP starved: %f / %f", ap1, ap2)
	}
	// CSMA sharing: neither AP monopolizes the joint total (per-flow TCP
	// dynamics make the split noisy in short runs).
	if ap1/(ap1+ap2) > 0.8 || ap2/(ap1+ap2) > 0.8 {
		t.Fatalf("unfair split: %f / %f", ap1, ap2)
	}
}

func TestFairnessIndexComputable(t *testing.T) {
	tb, dur := run(t, func(o *Options) {
		o.ClientsPerAP = 8
		o.APModes = []Mode{FastACK}
		o.BadHintRate = 0.015
	})
	var xs []float64
	for _, c := range tb.Clients {
		xs = append(xs, c.GoodputMbps(dur))
	}
	j := stats.JainFairness(xs)
	if j < 0.4 || j > 1 {
		t.Fatalf("Jain index %f", j)
	}
}

func TestBadHintsRecoveredLocally(t *testing.T) {
	tb, dur := run(t, func(o *Options) {
		o.ClientsPerAP = 5
		o.APModes = []Mode{FastACK}
		o.BadHintRate = 0.05 // exaggerated to force many bad hints
	})
	ag := tb.APs[0].Agent.Stats()
	if ag.BadHints == 0 {
		t.Fatal("no bad hints at 10% rate")
	}
	if ag.LocalRetransmits == 0 {
		t.Fatal("bad hints never repaired locally")
	}
	if aggregate(tb, dur) < 40 {
		t.Fatalf("throughput collapsed under bad hints: %f", aggregate(tb, dur))
	}
	// End-to-end retransmissions stay rare: the agent absorbs the loss.
	var rtx int64
	for _, snd := range tb.Senders {
		rtx += snd.TCP.Stats().Retransmits
	}
	if rtx > int64(50*len(tb.Senders)) {
		t.Fatalf("sender retransmissions leaked through: %d", rtx)
	}
}

func TestIdenticalChannelAcrossModes(t *testing.T) {
	// The per-client fade process must not depend on the AP mode, so A/B
	// comparisons run over the same air.
	snr := func(mode Mode) []float64 {
		opt := DefaultOptions()
		opt.ClientsPerAP = 3
		opt.APModes = []Mode{mode}
		tb := New(opt)
		tb.Run(2 * sim.Second)
		var out []float64
		for _, c := range tb.Clients {
			out = append(out, tb.Medium.SNR(c.AP.Station.ID, c.Station.ID))
		}
		return out
	}
	a, b := snr(Baseline), snr(FastACK)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("client %d channel diverged across modes: %f vs %f", i, a[i], b[i])
		}
	}
}

// TestFadingSwitch: with fading off every client's link keeps its base
// SNR draw; with it on, some client's link has moved after 2 s.
func TestFadingSwitch(t *testing.T) {
	for _, off := range []bool{true, false} {
		opt := DefaultOptions()
		opt.ClientsPerAP = 3
		opt.NoFading = off
		tb := New(opt)
		tb.Run(2 * sim.Second)
		moved := 0
		for _, c := range tb.Clients {
			if tb.Medium.SNR(c.AP.Station.ID, c.Station.ID) != c.SNR {
				moved++
			}
		}
		if off && moved != 0 {
			t.Errorf("fading off: %d of %d links left their base SNR", moved, len(tb.Clients))
		}
		if !off && moved == 0 {
			t.Errorf("fading on: no link left its base SNR")
		}
	}
}

func TestAgentSuppressionCountsMatch(t *testing.T) {
	tb, _ := run(t, func(o *Options) {
		o.ClientsPerAP = 3
		o.APModes = []Mode{FastACK}
	})
	ag := tb.APs[0].Agent.Stats()
	if ag.FastAcksSent == 0 {
		t.Fatal("no fast ACKs in FastACK mode")
	}
	if ag.ClientAcksDropped == 0 {
		t.Fatal("no client ACKs suppressed")
	}
	if ag.FlowsTracked != 3 {
		t.Fatalf("tracked %d flows, want 3", ag.FlowsTracked)
	}
}

func TestRoamingMidFlow(t *testing.T) {
	// A client roams from a FastACK AP to another FastACK AP mid-flow;
	// the transferred agent state keeps the transfer alive without an
	// RTO storm (§5.5.4).
	opt := DefaultOptions()
	opt.APModes = []Mode{FastACK, FastACK}
	opt.ClientsPerAP = 3
	opt.Warmup = sim.Second
	tb := New(opt)
	const roamer = 0
	var bytesAtRoam int64
	tb.Engine.Schedule(3*sim.Second, func(*sim.Engine) {
		bytesAtRoam = tb.Clients[roamer].Receiver.Stats().BytesReceived
		if err := tb.Roam(roamer, 1); err != nil {
			t.Errorf("roam: %v", err)
		}
	})
	tb.Run(6 * sim.Second)

	c := tb.Clients[roamer]
	if c.AP.Index != 1 {
		t.Fatalf("client still on AP %d", c.AP.Index)
	}
	after := c.Receiver.Stats().BytesReceived - bytesAtRoam
	if after < 1<<20 {
		t.Fatalf("flow moved only %d bytes after the roam", after)
	}
	// The roam-to agent must now be tracking the flow (imported or
	// re-adopted) and issuing fast ACKs for it.
	if tb.APs[1].Agent.Stats().FastAcksSent == 0 {
		t.Fatal("roam-to agent never fast-acked")
	}
	st := tb.Senders[roamer].TCP.Stats()
	if st.Timeouts > 3 {
		t.Fatalf("roam caused an RTO storm: %d timeouts", st.Timeouts)
	}
}

func TestRoamErrors(t *testing.T) {
	tb := New(DefaultOptions())
	if err := tb.Roam(-1, 0); err == nil {
		t.Fatal("bad client accepted")
	}
	if err := tb.Roam(0, 5); err == nil {
		t.Fatal("bad AP accepted")
	}
	if err := tb.Roam(0, 0); err != nil {
		t.Fatalf("no-op roam errored: %v", err)
	}
}

// TestFlowQueueBudget pins the per-flow queue budget New hands the FastACK
// agent: just under the per-STA driver queue, until the AP's clients
// together would overrun 90% of the shared descriptor pool (from 33
// clients on).
func TestFlowQueueBudget(t *testing.T) {
	for _, tc := range []struct{ clients, want int }{
		{10, 81088},
		{30, 81088},
		{33, 80877},
		{40, 66723},
	} {
		opt := DefaultOptions()
		opt.APModes = []Mode{FastACK}
		opt.ClientsPerAP = tc.clients
		if got := New(opt).Opt.FastACK.FlowQueueBudget; got != tc.want {
			t.Errorf("%d clients: FlowQueueBudget %d, want %d", tc.clients, got, tc.want)
		}
	}
}

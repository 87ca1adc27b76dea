package repro_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/backend"
	"repro/internal/fastack"
	"repro/internal/mac"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/testbed"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// Performance micro-benchmarks: not paper figures, but the numbers that
// determine how long the paper figures take to regenerate.

func BenchmarkPerfTCPSegmentCodec(b *testing.B) {
	d := packet.NewTCPDatagram(
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000},
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 2}, Port: 80}, 1448)
	d.TCP.SACK = []packet.SACKBlock{{Left: 1, Right: 2}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wire := d.Marshal()
		if _, err := packet.Unmarshal(wire); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerfFastACKDownlink(b *testing.B) {
	agent := fastack.New(fastack.DefaultConfig(), func() sim.Time { return 0 })
	srv := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	cli := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 2}, Port: 80}
	seq := uint32(1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := packet.NewTCPDatagram(srv, cli, 1448)
		d.TCP.Seq = seq
		seq += 1448
		agent.HandleDownlink(d)
		agent.HandleWirelessAck(d, true)
	}
}

func BenchmarkPerfMACSaturatedLink(b *testing.B) {
	// Events per second of the MAC engine under a saturated 2-station
	// link; reported as simulated-seconds per wall-second via ns/op.
	engine := sim.NewEngine(1)
	md := mac.NewMedium(engine, 40)
	tx := md.AddStation(mac.StationConfig{Name: "tx", NSS: 3, Width: spectrum.W80, GI: phy.SGI})
	rx := md.AddStation(mac.StationConfig{Name: "rx", NSS: 3, Width: spectrum.W80, GI: phy.SGI})
	rx.OnReceive = func(*mac.MPDU, sim.Time) {}
	srv := packet.Endpoint{Addr: packet.IPv4Addr{1}, Port: 1}
	cli := packet.Endpoint{Addr: packet.IPv4Addr{2}, Port: 2}
	refill := engine.Ticker(sim.Millisecond, func(*sim.Engine) {
		for tx.QueueDepth(phy.ACBE, rx.ID) < 64 {
			tx.Enqueue(packet.NewUDPDatagram(srv, cli, 1400), rx.ID, phy.ACBE)
		}
	})
	defer refill()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.RunUntil(engine.Now() + 100*sim.Millisecond)
	}
}

// BenchmarkPerfSimRearm is the event queue under the retransmission-timeout
// shape, which bench/'s sim.schedule_fire probe (schedule, fire, no timers)
// does not have: a stream of events 100 µs apart, each re-arming one of 30
// timers in turn to 200 ms out, so no timer ever fires. One op is one event
// of the stream; "queued" is the queue's depth when the run ends (a queue
// that kept a cancelled arming until its instant would hold 2,000).
func BenchmarkPerfSimRearm(b *testing.B) {
	e := sim.NewEngine(1)
	timers := make([]*sim.Timer, 30)
	for i := range timers {
		timers[i] = e.NewTimer(func(*sim.Engine) { b.Fatal("timer fired") })
	}
	n := 0
	var next func(*sim.Engine)
	next = func(en *sim.Engine) {
		timers[n%len(timers)].Reset(200 * sim.Millisecond)
		n++
		en.After(100*sim.Microsecond, next)
	}
	e.After(0, next)
	e.RunUntil(sim.Second) // every timer armed, the queue at its working depth
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(e.Queued()), "queued")
}

// benchTestbed drives one of BENCHMARK.json's two testbed shapes the way
// bench/data.go does — invariant checker armed, the first simulated second
// (handshakes, slow start, pools filling) outside the timer, then 100 ms
// slices — so that a profile of it is a profile of that workload's steady
// state (`make profile-testbed`).
func benchTestbed(b *testing.B, shape func(*testbed.Options)) {
	opt := testbed.DefaultOptions()
	opt.Seed = 20170811
	opt.FastACK.CheckInvariants = true
	shape(&opt)
	tb := testbed.New(opt)
	tb.Run(sim.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Engine.RunUntil(tb.Engine.Now() + 100*sim.Millisecond)
	}
	b.ReportMetric(0.1*float64(b.N)/b.Elapsed().Seconds(), "sim_s/s")
}

// BenchmarkPerfTestbedDownlink is testbed_downlink: one FastACK AP, 30 bulk
// downloads, 1.5 % bad hints (the Fig 16 shape).
func BenchmarkPerfTestbedDownlink(b *testing.B) {
	benchTestbed(b, func(o *testbed.Options) {
		o.APModes = []testbed.Mode{testbed.FastACK}
		o.ClientsPerAP = 30
		o.BadHintRate = 0.015
	})
}

// BenchmarkPerfTestbedMixed is testbed_mixed: a Baseline and a FastACK AP
// contending, 10 clients each, a download and an upload per client.
func BenchmarkPerfTestbedMixed(b *testing.B) {
	benchTestbed(b, func(o *testbed.Options) {
		o.APModes = []testbed.Mode{testbed.Baseline, testbed.FastACK}
		o.ClientsPerAP = 10
		o.Traffic = testbed.TCPBidirectional
	})
}

func BenchmarkPerfNBOMuseum(b *testing.B) {
	_, in := plannerInput(topo.Museum(3), 3)
	cfg := turboca.DefaultConfig()
	rng := rand.New(rand.NewSource(4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turboca.RunNBO(cfg, in, rng, []int{0})
	}
}

func BenchmarkPerfNBOCampus(b *testing.B) {
	_, in := plannerInput(topo.Campus(3), 3)
	// The ~600-AP campus at several worker counts; each invocation gets a
	// fresh rng from the same seed, so every count (and every iteration)
	// produces the identical plan and the deltas are pure parallel speedup.
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := turboca.DefaultConfig()
			cfg.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				turboca.RunNBO(cfg, in, rand.New(rand.NewSource(4)), []int{0})
			}
		})
	}
}

// BenchmarkPerfNBOStadium is the dense case: one stadium bowl where every
// AP hears dozens of others, so ACC's neighborhood walks dominate the pass
// (`make profile-planner` profiles it).
func BenchmarkPerfNBOStadium(b *testing.B) {
	_, in := plannerInput(topo.Stadium(3), 3)
	cfg := turboca.DefaultConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		turboca.RunNBO(cfg, in, rand.New(rand.NewSource(4)), []int{1, 0})
	}
}

func BenchmarkPerfModelEvaluate(b *testing.B) {
	sc := topo.Campus(5)
	m := backend.NewModel(sc, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Invalidate()
		m.Evaluate(sim.Time(i%24) * sim.Hour)
	}
}

package main

import (
	"fmt"
	"math/rand"

	"repro/internal/backend"
	"repro/internal/fastack"
	"repro/internal/littletable"
	"repro/internal/mac"
	"repro/internal/obs"
	"repro/internal/oracle"
	"repro/internal/packet"
	"repro/internal/phy"
	"repro/internal/rfenv"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/tcpstack"
	"repro/internal/topo"
	"repro/internal/turboca"
)

// A traced run adds layer probes to the traced workload repeats: drivers
// that call one layer at a time through its public functions, each call (or
// batch of identical calls) inside a span. A workload cannot give these
// numbers from outside: fleetd runs the layers interleaved on a worker pool,
// and the testbed runs sim, mac, tcpstack and fastack inside one event loop.

// traceDef derives one trace.* metric from the spans of one name.
type traceDef struct {
	metric, span string
	kind         byte // 's' mean self ms per call, 'n' ns per call, 'a' allocations per call
}

var traceDefs = []traceDef{
	{"trace.topo.generate_ms", "topo.generate", 's'},
	{"trace.backend.new_ms", "backend.new", 's'},
	{"trace.sim.run_until_ms", "sim.run_until", 's'},
	{"trace.backend.poll_ms", "backend.poll", 's'},
	{"trace.backend.reconcile_ms", "backend.reconcile", 's'},
	{"trace.backend.planner_input_ms", "backend.planner_input", 's'},
	{"trace.backend.planner_input_allocs", "backend.planner_input", 'a'},
	{"trace.turboca.digest_ms", "turboca.digest", 's'},
	{"trace.turboca.run_nbo_i0_ms", "turboca.run_nbo_i0", 's'},
	{"trace.turboca.run_nbo_i1_ms", "turboca.run_nbo_i1", 's'},
	{"trace.turboca.run_nbo_i1_allocs", "turboca.run_nbo_i1", 'a'},
	{"trace.turboca.run_once_self_ms", "turboca.run_once", 's'},
	{"trace.littletable.insert_batch_ns_per_row", "littletable.insert_batch", 'n'},
	{"trace.littletable.aggregate_ms", "littletable.aggregate", 's'},
	{"trace.fleetd.snapshot_ms", "fleetd.snapshot", 's'},
	{"trace.fleetd.checkpoint_ms", "fleetd.checkpoint", 's'},
	{"trace.spectrum.channels_ns", "spectrum.channels", 'n'},
	{"trace.spectrum.channels_allocs", "spectrum.channels", 'a'},
	{"trace.spectrum.wider_ns", "spectrum.wider", 'n'},
	{"trace.spectrum.wider_allocs", "spectrum.wider", 'a'},
	{"trace.spectrum.sub20_ns", "spectrum.sub20", 'n'},
	{"trace.spectrum.sub20_allocs", "spectrum.sub20", 'a'},
	{"trace.spectrum.overlaps_ns", "spectrum.overlaps", 'n'},
	{"trace.spectrum.overlaps_allocs", "spectrum.overlaps", 'a'},
	{"trace.topo.external_util_ns", "topo.external_util", 'n'},
	{"trace.topo.external_util_allocs", "topo.external_util", 'a'},
	{"trace.rfenv.occupancy_ns", "rfenv.occupancy", 'n'},
	{"trace.rfenv.noise_map_ns", "rfenv.noise_map", 'n'},
	{"trace.oracle.solve_12ap_ms", "oracle.solve_12ap", 's'},
	{"trace.sim.schedule_fire_ns", "sim.schedule_fire", 'n'},
	{"trace.sim.schedule_fire_allocs", "sim.schedule_fire", 'a'},
	{"trace.packet.marshal_ns", "packet.marshal", 'n'},
	{"trace.packet.unmarshal_ns", "packet.unmarshal", 'n'},
	{"trace.mac.saturated_ns_per_mpdu", "mac.saturated", 'n'},
	{"trace.tcpstack.loopback_ns_per_segment", "tcpstack.loopback", 'n'},
	{"trace.fastack.downlink_ns", "fastack.downlink", 'n'},
	{"trace.fastack.wireless_ack_ns", "fastack.wireless_ack", 'n'},
	{"trace.fastack.uplink_ns", "fastack.uplink", 'n'},
	{"trace.fastack.batch_ack_ns_per_seg", "fastack.batch_ack", 'n'},
}

// traceMetrics runs the plane's probes after the workload's repeats and
// derives every trace.* metric from the spans recorded since spanFrom.
func traceMetrics(w workload, o runOpts, spanFrom int, reps []repeat) map[string]float64 {
	seed := subSeed(o.seed, 0)
	if w.plane == "control" {
		if w.name != "plan_dense" {
			// plan_dense is itself one stand-alone network walked serially;
			// its own spans are the walk.
			walkNetworks(o.tr, o.size, seed)
		}
		controlProbes(o.tr, o.size, seed)
	} else {
		dataProbes(o.tr, o.size, seed)
	}

	out := map[string]float64{}
	by := o.tr.byName(spanFrom)
	for _, d := range traceDefs {
		lt, ok := by[d.span]
		if !ok {
			continue // a layer this workload's plane does not run
		}
		switch d.kind {
		case 's':
			out[d.metric] = ratio(lt.selfNS, lt.calls) / 1e6
		case 'n':
			out[d.metric] = ratio(lt.durNS, lt.calls)
		case 'a':
			out[d.metric] = ratio(lt.allocs, lt.calls)
		}
	}
	// Tracing overhead: traced against untraced wall time on the same input,
	// averaged over the inputs that ran both ways (0 when none did).
	traced, plain := map[int64][]float64{}, map[int64][]float64{}
	for _, r := range reps {
		if r.traced {
			traced[r.seed] = append(traced[r.seed], r.wallS)
		} else {
			plain[r.seed] = append(plain[r.seed], r.wallS)
		}
	}
	var ratios []float64
	for seed, t := range traced {
		if p := plain[seed]; len(p) > 0 {
			ratios = append(ratios, median(t)/median(p))
		}
	}
	out["trace.overhead_pct"] = 0
	if len(ratios) > 0 {
		out["trace.overhead_pct"] = 100 * (mean(ratios) - 1)
	}
	return out
}

// walkNetworks drives one stand-alone network of each deployment kind the
// way fleetd.executePass drives a fleet network — engine to the deadline,
// planner input, plan, telemetry rows — with a span around each public call.
// The input snapshot, digest and NBO spans are extra calls on the same
// backend state fleetd's pass makes inside Service.RunOnce; their results
// are discarded, so the walk's plans are what an untraced walk produces.
func walkNetworks(tr *tracer, size sizing, seed int64) {
	kinds := []func(int64) *topo.Scenario{topo.Office, topo.School, topo.Hotel, topo.Museum, topo.MDU, topo.Campus}
	db := littletable.NewDB()
	fleetAP := db.Table("fleet_ap")
	const tick = 15 * sim.Minute
	for k, kind := range kinds {
		reg := obs.NewRegistry()
		tr.enable(reg)
		from := len(tr.spans)
		var sc *topo.Scenario
		var eng *sim.Engine
		var be *backend.Backend
		tr.span("topo.generate", 1, func() { sc = kind(seed + int64(k)) })
		tr.span("backend.new", 1, func() {
			eng = sim.NewEngineCompact(seed ^ int64(k))
			opt := backend.DefaultOptions(backend.AlgTurboCA)
			opt.Seed = seed + int64(k)
			opt.Obs = reg
			opt.DirtySkip = true
			opt.DisableTelemetryHistory = true
			be = backend.New(opt, sc, eng)
			be.StartManaged()
		})
		// The explicit NBO calls report to a registry nobody traces, so a
		// program span does not hollow out the benchmark's own.
		cfg := be.Opt.Planner
		cfg.Obs = obs.NewRegistry().Scope("turboca")
		rng := rand.New(rand.NewSource(seed))
		for t := tick; t <= size.walkHorizon; t += tick {
			t := t
			hops := []int{0}
			if t == size.walkHorizon {
				hops = []int{1, 0}
			}
			tr.inPass(func() {
				tr.span("sim.run_until", 1, func() { eng.RunUntil(t) })
				for _, band := range be.Service.Bands {
					var in turboca.Input
					tr.span("backend.planner_input", 1, func() { in = be.PlannerInput(band) })
					tr.span("turboca.digest", 1, func() {
						in.Sanitize()
						in.Digest()
					})
					tr.span("turboca.run_nbo_i0", 1, func() { turboca.RunNBO(cfg, in, rng, []int{0}) })
					if len(hops) > 1 {
						tr.span("turboca.run_nbo_i1", 1, func() { turboca.RunNBO(cfg, in, rng, []int{1}) })
					}
				}
				tr.span("turboca.service_run_once", 1, func() { be.Service.RunOnce(hops) })
				perf := be.Model.Evaluate(t)
				rows := make([]littletable.Row, 0, len(sc.APs))
				for _, ap := range sc.APs {
					p := perf[ap.ID]
					rows = append(rows, littletable.Row{At: t, Fields: map[string]float64{
						"ap": float64(ap.ID), "util": p.Utilization, "served": p.ServedMbps, "demand": p.DemandMbps,
					}})
				}
				tr.span("littletable.insert_batch", len(rows), func() { fleetAP.InsertBatch(fmt.Sprintf("net%05d", k), rows) })
			})
		}
		tr.adopt(reg, from)
	}
	tr.span("littletable.aggregate", 1, func() { fleetAP.AggregateField("util", 0, size.walkHorizon+1) })
}

var probeSink float64

// controlProbes times the small pure functions the planner-input build and
// the planner call in their inner loops, one batched span each.
func controlProbes(tr *tracer, size sizing, seed int64) {
	n := size.probeCalls
	chans := spectrum.AllChannels(spectrum.Band5, spectrum.W80, true)
	tr.span("spectrum.channels", n, func() {
		for i := 0; i < n; i++ {
			probeSink += float64(len(spectrum.Channels(spectrum.Band5, spectrum.Width(20<<(i%3)), true)))
		}
	})
	tr.span("spectrum.wider", n, func() {
		for i := 0; i < n; i++ {
			if c, ok := spectrum.Wider(chans[i%len(chans)]); ok {
				probeSink += float64(c.Number)
			}
		}
	})
	tr.span("spectrum.sub20", n, func() {
		for i := 0; i < n; i++ {
			probeSink += float64(len(chans[i%len(chans)].Sub20Numbers()))
		}
	})
	tr.span("spectrum.overlaps", n, func() {
		for i := 0; i < n; i++ {
			if chans[i%len(chans)].Overlaps(chans[(i*7+3)%len(chans)]) {
				probeSink++
			}
		}
	})
	office := topo.Office(seed)
	sub20 := rfenv.Default5GHzChannels()
	tr.span("topo.external_util", n, func() {
		for i := 0; i < n; i++ {
			ap := office.APs[i%len(office.APs)]
			probeSink += office.ExternalUtilization(ap.Pos, spectrum.Band5, sub20[i%len(sub20)])
		}
	})
	traces := rfenv.NewTraceSet(seed, sub20, rfenv.DefaultTraceOptions())
	tr.span("rfenv.occupancy", n, func() {
		for i := 0; i < n; i++ {
			probeSink += traces.Occupancy(sub20[i%len(sub20)], sim.Time(i)*sim.Second)
		}
	})
	tr.span("rfenv.noise_map", n/10, func() {
		for i := 0; i < n/10; i++ {
			probeSink += float64(len(traces.NoiseMap(sim.Time(i) * sim.Minute)))
		}
	})
	// Grid problems, as BenchmarkOracleSolve uses: cliques of 12 run into
	// the node budget and take seconds each.
	rng := rand.New(rand.NewSource(seed))
	for v := 0; v < 8; v++ {
		cfg, in := oracle.Scenario(oracle.Grid, 12, rng)
		tr.span("oracle.solve_12ap", 1, func() { probeSink += oracle.Solve(cfg, in, oracle.Options{}).LogNetP })
	}
}

// dataProbes drives each data-plane module alone.
func dataProbes(tr *tracer, size sizing, seed int64) {
	n := size.probeCalls

	eng := sim.NewEngine(seed)
	tr.span("sim.schedule_fire", n, func() {
		for i := 0; i < n; i++ {
			eng.After(sim.Microsecond, func(*sim.Engine) { probeSink++ })
			eng.Step()
		}
	})

	srv := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	cli := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 1}, Port: 80}
	d := packet.NewTCPDatagram(srv, cli, tcpstack.MSS)
	d.TCP.Flags = packet.FlagACK | packet.FlagPSH
	var wire []byte
	tr.span("packet.marshal", n, func() {
		for i := 0; i < n; i++ {
			d.TCP.Seq = uint32(i)
			wire = d.Marshal()
		}
	})
	tr.span("packet.unmarshal", n, func() {
		for i := 0; i < n; i++ {
			if u, err := packet.Unmarshal(wire); err == nil {
				probeSink += float64(u.PayloadLen)
			}
		}
	})

	probeMAC(tr, seed, n)
	probeTCP(tr, seed, n)
	probeAgent(tr, seed, n)
}

// probeMAC saturates one AP→client link: the AP's queue is topped up on
// every delivery, so the medium never idles and no TCP runs.
func probeMAC(tr *tracer, seed int64, n int) {
	eng := sim.NewEngine(seed)
	md := mac.NewMedium(eng, 35)
	ap := md.AddStation(mac.StationConfig{Name: "ap", NSS: 3, Width: spectrum.W80, GI: phy.SGI, IsAP: true})
	sta := md.AddStation(mac.StationConfig{Name: "sta", NSS: 3, Width: spectrum.W80, GI: phy.SGI})
	dg := packet.NewUDPDatagram(
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 9},
		packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 1}, Port: 9}, tcpstack.MSS)
	delivered := 0
	ap.OnDelivered = func(m *mac.MPDU, ok bool, now sim.Time) {
		delivered++
		ap.Enqueue(dg, sta.ID, phy.ACBE)
	}
	for i := 0; i < 256; i++ {
		ap.Enqueue(dg, sta.ID, phy.ACBE)
	}
	tr.span("mac.saturated", n, func() {
		for delivered < n && eng.Step() {
		}
	})
}

// probeTCP runs one bulk sender against one receiver over a fixed 1 ms pipe
// each way: tcpstack and the event engine, no MAC.
func probeTCP(tr *tracer, seed int64, n int) {
	eng := sim.NewEngine(seed)
	a := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	b := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 1, 1}, Port: 80}
	var snd *tcpstack.Sender
	var rcv *tcpstack.Receiver
	pipe := func(deliver func(*packet.Datagram)) tcpstack.Output {
		return func(d *packet.Datagram) {
			eng.After(sim.Millisecond, func(*sim.Engine) { deliver(d) })
		}
	}
	cfg := tcpstack.DefaultConfig()
	snd = tcpstack.NewSender(eng, cfg, a, b, pipe(func(d *packet.Datagram) { rcv.Deliver(d) }))
	rcv = tcpstack.NewReceiver(eng, cfg, b, a, pipe(func(d *packet.Datagram) { snd.Deliver(d) }))
	snd.Start()
	tr.span("tcpstack.loopback", n, func() {
		for snd.Stats().SegmentsSent < int64(n) && eng.Step() {
		}
	})
}

// probeAgent calls each agent entry point for every flow in turn, so one
// span covers only that entry point, then the batched block-ACK path.
func probeAgent(tr *tracer, seed int64, n int) {
	flows := 1000
	if n < flows {
		flows = n
	}
	rounds := n / flows
	f, order := newAgentFlows(flows, seed)
	for _, i := range order {
		f.lifecycle(i)
		f.lifecycle(i)
	}
	for r := 0; r < rounds; r++ {
		tr.span("fastack.downlink", flows, func() {
			for _, i := range order {
				f.downlink(i)
			}
		})
		tr.span("fastack.wireless_ack", flows, func() {
			for _, i := range order {
				f.wirelessAck(i)
			}
		})
		tr.span("fastack.uplink", flows, func() {
			for _, i := range order {
				f.uplink(i)
			}
		})
	}

	const burst = 16
	segs := make([]*packet.Datagram, burst)
	for j := range segs {
		segs[j] = f.segs[0].Clone()
	}
	evs := make([]fastack.SegFate, 0, burst)
	tr.span("fastack.batch_ack", n/burst*burst, func() {
		for k := 0; k < n/burst; k++ {
			i := order[k%flows]
			evs = evs[:0]
			for j, seg := range segs {
				seg.IP.Dst, seg.TCP.DstPort = f.segs[i].IP.Dst, f.segs[i].TCP.DstPort
				seg.TCP.Seq = f.seqs[i] + uint32(j*segLen)
				f.a.HandleDownlink(seg)
				evs = append(evs, fastack.SegFate{Dgram: seg, OK: true})
			}
			for _, fa := range f.a.HandleWirelessAckBatch(evs).ToSender {
				f.a.Recycle(fa)
			}
			f.seqs[i] += (burst - 1) * segLen
			f.uplink(i)
		}
	})
}

package main

import (
	"fmt"

	"repro/internal/fastack"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// runTestbed is testbed_downlink (one FastACK AP, 30 bulk downloads, 1.5 %
// bad hints: the Fig 16 shape) and testbed_mixed (a Baseline and a FastACK AP
// contending, 10 clients each, a download and an upload per client).
//
//	setup   testbed.New
//	cold    the first simulated second (handshakes, slow start, pools filling)
//	steady  the remaining simulated seconds in 100 ms slices
func runTestbed(rc *runCtx, seed int64, mixed bool) {
	rep := rc.rep
	opt := testbed.DefaultOptions()
	opt.Seed = seed
	opt.FastACK.CheckInvariants = true
	total := rc.size.downlinkSim
	if mixed {
		opt.APModes = []testbed.Mode{testbed.Baseline, testbed.FastACK}
		opt.ClientsPerAP = 10
		opt.Traffic = testbed.TCPBidirectional
		total = rc.size.mixedSim
	} else {
		opt.APModes = []testbed.Mode{testbed.FastACK}
		opt.ClientsPerAP = 30
		opt.BadHintRate = 0.015
	}

	var tb *testbed.Testbed
	var p phases
	p.setupsS = rc.setup(func() {
		rc.tr.span("testbed.new", 1, func() { tb = testbed.New(opt) })
	}, func() { tb = nil })

	const cold, slice = sim.Second, 100 * sim.Millisecond
	p.coldS = rc.timed("testbed.run_cold", func() { tb.Run(cold) })
	firedCold := tb.Engine.Fired()
	p.steadyMem[0] = readMem()
	for t := cold + slice; t <= total; t += slice {
		t := t
		p.unitsMS = append(p.unitsMS, 1e3*rc.timed("sim.run_until", func() { tb.Engine.RunUntil(t) }))
	}
	p.steadyMem[1] = readMem()
	p.work = (total - cold).Seconds()

	// tcpstack.Receiver answers a SYN once. When the MAC drops that SYN-ACK
	// (retry exhaustion; 8 of 800 scanned inputs under testbed_mixed's
	// contention) the sender re-sends its SYN for ever and the flow never
	// opens, at any horizon. Such a run has a flow fewer than the workload is
	// defined with, so the input is replaced, not measured.
	for _, snd := range tb.Senders {
		if (snd.TCP != nil && snd.TCP.Stats().SegmentsSent == 0) ||
			(snd.Client.Uplink != nil && snd.Client.Uplink.Stats().SegmentsSent == 0) {
			rep.unfit = fmt.Sprintf("client %d never completed a handshake", snd.Client.Index)
			return
		}
	}

	// A flow fails when it never delivers a byte. One that delivers and
	// then sits out the run in RTO backoff is the system's behaviour under
	// contention, not a failure: it shows in tcpstack.timeouts and in goodput.
	flows, dead := 0, 0
	for i, c := range tb.Clients {
		p.quality += c.GoodputMbps(total) + c.UplinkGoodputMbps(total)
		flows++
		if c.Receiver.Stats().BytesReceived == 0 {
			dead++
		}
		if up := tb.Senders[i].UpRX; up != nil {
			flows++
			if up.Stats().BytesReceived == 0 {
				dead++
			}
		}
	}
	p.sizeUnits = float64(flows)

	events := float64(tb.Engine.Fired())
	rc.layer("sim.events", events)
	rc.layer("sim.ns_per_event", ratio(p.steadyS()*1e9, events-float64(firedCold)))

	ms := tb.Medium.Stats()
	rc.layer("mac.frames", float64(ms.Frames))
	rc.layer("mac.collision_ratio", ratio(float64(ms.Collisions), float64(ms.Frames)))
	rc.layer("mac.busy_ratio", ratio(ms.BusyUs, float64(total/sim.Microsecond)))
	var aggN, aggSum, poolDrops float64
	for _, st := range tb.Medium.Stations() {
		ss := st.Stats()
		poolDrops += float64(ss.PoolDrops)
		if st.Config().IsAP {
			for size, n := range ss.AggHistogram {
				aggN += float64(n)
				aggSum += float64(size) * float64(n)
			}
		}
	}
	rc.layer("mac.mean_ampdu", ratio(aggSum, aggN))
	rc.layer("mac.pool_drops", poolDrops)

	var sent, rtx, rto float64
	for _, snd := range tb.Senders {
		if snd.TCP != nil {
			s := snd.TCP.Stats()
			sent, rtx, rto = sent+float64(s.SegmentsSent), rtx+float64(s.Retransmits), rto+float64(s.Timeouts)
		}
		if up := snd.Client.Uplink; up != nil {
			s := up.Stats()
			sent, rtx, rto = sent+float64(s.SegmentsSent), rtx+float64(s.Retransmits), rto+float64(s.Timeouts)
		}
	}
	rc.layer("tcpstack.segments_sent", sent)
	rc.layer("tcpstack.retransmits", rtx)
	rc.layer("tcpstack.timeouts", rto)

	agents := tb.AgentStatsPerAP()
	var sum fastack.Stats
	for _, s := range agents {
		sum.FastAcksSent += s.FastAcksSent
		sum.ClientAcksDropped += s.ClientAcksDropped
		sum.LocalRetransmits += s.LocalRetransmits
		sum.CacheEvictions += s.CacheEvictions
		sum.GuardBypasses += s.GuardBypasses
		sum.InvariantViolations += s.InvariantViolations
	}
	agentLayers(rc, sum)

	viol, undrained := int(tb.InvariantViolations()), tb.UndrainedBypassedFlows()
	rep.ops = flows
	rep.failed = dead + viol + undrained
	if rep.failed > 0 {
		rep.failf("%d flows delivered nothing, %d invariant violations, %d undrained bypassed flows",
			dead, viol, undrained)
	}
	rep.fingerprint = hash64(tb.Engine.Fired(), p.quality, agents)
	rc.finish(p, tb)
}

func agentLayers(rc *runCtx, s fastack.Stats) {
	rc.layer("fastack.fast_acks", float64(s.FastAcksSent))
	rc.layer("fastack.client_acks_dropped", float64(s.ClientAcksDropped))
	rc.layer("fastack.local_retransmits", float64(s.LocalRetransmits))
	rc.layer("fastack.cache_evictions", float64(s.CacheEvictions))
	rc.layer("fastack.guard_bypasses", float64(s.GuardBypasses))
	rc.layer("fastack.invariant_violations", float64(s.InvariantViolations))
}

const segLen = 1000

// agentFlows is a fastack.Agent with n handshaken flows and, per flow, one
// reusable data segment and one reusable client ACK — the shape
// BenchmarkAgentHotPath drives, built here from public calls only.
type agentFlows struct {
	a    *fastack.Agent
	segs []*packet.Datagram
	acks []*packet.Datagram
	seqs []uint32
}

// newAgentFlows handshakes n flows. The seed picks each flow's initial
// sequence number and the order flows are visited in, which is what decides
// how the flow table and its rings sit in memory.
func newAgentFlows(n int, seed int64) (*agentFlows, []int) {
	rng := sim.NewRNG(seed)
	f := &agentFlows{
		a:    fastack.New(fastack.DefaultConfig(), nil),
		segs: make([]*packet.Datagram, n),
		acks: make([]*packet.Datagram, n),
		seqs: make([]uint32, n),
	}
	srv := packet.Endpoint{Addr: packet.IPv4Addr{10, 0, 0, 1}, Port: 5000}
	for i := 0; i < n; i++ {
		cli := packet.Endpoint{Addr: packet.IPv4Addr{10, 1, byte(i >> 8), byte(i)}, Port: 80}
		iss := rng.Uint32()
		syn := packet.NewTCPDatagram(srv, cli, 0)
		syn.TCP.Seq = iss
		syn.TCP.Flags = packet.FlagSYN
		syn.TCP.WindowScale = 7
		f.a.HandleDownlink(syn)
		synAck := packet.NewTCPDatagram(cli, srv, 0)
		synAck.TCP.Flags = packet.FlagSYN | packet.FlagACK
		synAck.TCP.Window = 4096 // 512 KiB scaled
		synAck.TCP.WindowScale = 7
		synAck.TCP.SACKPermitted = true
		f.a.HandleUplink(synAck)

		f.segs[i] = packet.NewTCPDatagram(srv, cli, segLen)
		f.segs[i].TCP.Flags = packet.FlagACK | packet.FlagPSH
		f.acks[i] = packet.NewTCPDatagram(cli, srv, 0)
		f.acks[i].TCP.Flags = packet.FlagACK
		f.acks[i].TCP.Window = 4096
		f.seqs[i] = iss + 1
	}
	return f, rng.Perm(n)
}

func (f *agentFlows) downlink(i int) {
	f.segs[i].TCP.Seq = f.seqs[i]
	f.a.HandleDownlink(f.segs[i])
}

func (f *agentFlows) wirelessAck(i int) {
	for _, fa := range f.a.HandleWirelessAck(f.segs[i], true).ToSender {
		f.a.Recycle(fa)
	}
}

func (f *agentFlows) uplink(i int) {
	f.seqs[i] += segLen
	f.acks[i].TCP.Ack = f.seqs[i]
	f.a.HandleUplink(f.acks[i])
}

// lifecycle is one segment through the agent: downlink data, the 802.11
// delivery report (which emits the fast ACK), then the client's own ACK.
func (f *agentFlows) lifecycle(i int) {
	f.downlink(i)
	f.wirelessAck(i)
	f.uplink(i)
}

// runAgent is agent_manyflow: the FastACK agent alone with a flow table
// larger than the cache.
//
//	setup   agent + one handshake per flow
//	cold    the first two rounds over every flow (rings, pool and scratch
//	        slices grow to their steady sizes)
//	steady  a fixed number of segment lifecycles round-robin, timed per
//	        1000 segments
func runAgent(rc *runCtx, seed int64) {
	rep := rc.rep
	n, segments := rc.size.agentFlows, rc.size.agentSegments
	var (
		f     *agentFlows
		order []int
	)
	var p phases
	p.setupsS = rc.setup(func() { f, order = newAgentFlows(n, seed) }, func() { f, order = nil, nil })

	p.coldS = rc.timed("fastack.warm_rounds", func() {
		for r := 0; r < 2; r++ {
			for _, i := range order {
				f.lifecycle(i)
			}
		}
	})
	const batch = 1000
	before := f.a.Stats()
	p.steadyMem[0] = readMem()
	at := 0
	for done := 0; done < segments; done += batch {
		p.unitsMS = append(p.unitsMS, 1e3*rc.timed("fastack.lifecycle_batch", func() {
			for k := 0; k < batch; k++ {
				f.lifecycle(order[at])
				if at++; at == n {
					at = 0
				}
			}
		}))
	}
	p.steadyMem[1] = readMem()
	p.work = float64(segments)
	p.sizeUnits = float64(n)

	st := f.a.Stats()
	agentLayers(rc, st)
	// Every delivered segment must have been vouched for by exactly one
	// fast ACK; the ratio is the agent's useful outcomes per attempt.
	p.quality = ratio(float64(st.FastAcksSent-before.FastAcksSent), float64(segments))
	allocs := p.steadyMem[1].mallocs - p.steadyMem[0].mallocs
	rep.ops = segments
	rep.failed = int(st.GuardBypasses + st.InvariantViolations)
	if rep.failed > 0 || p.quality != 1 || f.a.FlowCount() != n {
		rep.failf("%d guard bypasses, %d violations, %.4f fast ACKs per segment, %d/%d flows",
			st.GuardBypasses, st.InvariantViolations, p.quality, f.a.FlowCount(), n)
	}
	// The harness itself allocates a little between the two readings (span
	// records, the timing slice); the hot path allocates nothing.
	if perSeg := allocs / float64(segments); perSeg > 0.01 {
		rep.failf("%.4f allocations per segment in steady state, want 0", perSeg)
	}
	rep.fingerprint = hash64(fmt.Sprintf("%+v", st))
	rc.finish(p, f)
}

package experiments

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/testbed"
)

// The §5.6 testbed suite: Figs 10–18 plus two regimes the paper does not
// measure — guarded FastACK under data-path faults and reverse-direction
// traffic. Every figure reads the session's memoised testbed runs, so the
// 30-client pair behind Figs 15–17, say, is simulated once.

// base and fast are the plain single-AP runs at n clients.
func (s *Session) base(n int) *TestbedResult { return s.Testbed(testbed.Baseline, n, "", nil) }
func (s *Session) fast(n int) *TestbedResult { return s.Testbed(testbed.FastACK, n, "", nil) }

// fig10 shows the latency gap under baseline TCP.
func fig10(s *Session, r *Report) {
	paper := map[int]string{5: "small gap", 15: "growing", 25: "~48 / ~85 ms (75% gap)"}
	for _, n := range []int{5, 15, 25} {
		b := s.base(n)
		r.Rows = append(r.Rows, Row{fmt.Sprintf("%d clients: 802.11 / TCP", n), paper[n], "%.1f / %.1f ms (%.0f%% gap)", []Value{
			{fmt.Sprintf("l80211_%d_ms", n), b.Lat80211},
			{fmt.Sprintf("ltcp_%d_ms", n), b.LatTCP},
			{fmt.Sprintf("gap_%d_%%", n), 100 * (b.LatTCP - b.Lat80211) / (b.Lat80211 + 1e-9)}}})
	}
}

// fig14 shows the congestion-window spread over 10 flows.
func fig14(s *Session, r *Report) {
	b, f := s.base(10), s.fast(10)
	span := func(name string, cwnd []int) []Value {
		return []Value{{name + "_cwnd_min", float64(slices.Min(cwnd))}, {name + "_cwnd_max", float64(slices.Max(cwnd))}}
	}
	r.Rows = []Row{
		{"baseline cwnd range", "spread; not all reach the 770 cap", "%.0f..%.0f segments", span("base", b.Cwnd)},
		{"FastACK cwnd range", "opens quickly toward the cap", "%.0f..%.0f segments", span("fast", f.Cwnd)},
	}
	var d strings.Builder
	for _, m := range []struct {
		mode testbed.Mode
		res  *TestbedResult
	}{{testbed.Baseline, b}, {testbed.FastACK, f}} {
		fmt.Fprintf(&d, "%s:\n", m.mode)
		for i := range m.res.Cwnd {
			fmt.Fprintf(&d, "  flow%02d final=%4d max=%4d\n", i, m.res.Cwnd[i], m.res.CwndMax[i])
		}
	}
	r.Detail = d.String()
}

// fig15 compares A-MPDU aggregation at 30 clients against the UDP bound.
func fig15(s *Session, r *Report) {
	b, f := s.base(30), s.fast(30)
	u := s.Testbed(testbed.Baseline, 30, "udp", func(o *testbed.Options) {
		o.Traffic = testbed.UDPBulk
		o.UDPRateMbps = 40
	})
	r.Rows = []Row{
		{"baseline mean A-MPDU", "17-41 range", "%.1f", []Value{{"base_agg", b.Agg}}},
		{"FastACK mean A-MPDU", "33-56 range", "%.1f", []Value{{"fastack_agg", f.Agg}}},
		{"FastACK vs baseline", "+36-94%", pct, []Value{{"agg_gain_%", 100 * (f.Agg - b.Agg) / b.Agg}}},
		{"UDP upper bound", "approaches 64", "%.1f", []Value{{"udp_agg", u.Agg}}},
	}
	var d strings.Builder
	fmt.Fprintf(&d, "%8s %10s %10s %10s\n", "client", "baseline", "fastack", "udp")
	for i := range b.AggClient {
		fmt.Fprintf(&d, "%8d %10.1f %10.1f %10.1f\n", i, b.AggClient[i], f.AggClient[i], u.AggClient[i])
	}
	r.Detail = d.String()
}

// fig16 sweeps aggregate throughput over the client count.
func fig16(s *Session, r *Report) {
	maxGain := 0.0
	closing := "FastACK still wins at every point."
	for _, n := range []int{5, 10, 15, 20, 25, 30} {
		b, f := s.base(n).TotalMbps, s.fast(n).TotalMbps
		gain := 100 * (f - b) / b
		maxGain = max(maxGain, gain)
		if gain <= 0 {
			closing = "At this seed FastACK does not win at every point."
		}
		r.Rows = append(r.Rows, Row{fmt.Sprintf("%d clients", n), "FastACK wins", "%.0f -> %.0f Mbps (%+.1f%%)", []Value{
			{fmt.Sprintf("base_%d_mbps", n), b}, {fmt.Sprintf("fast_%d_mbps", n), f}, {fmt.Sprintf("gain_%d_%%", n), gain}}})
	}
	r.Rows = append(r.Rows, Row{"max gain", "up to +38%", pct, []Value{{"max_gain_%", maxGain}}})
	r.Notes = "Deviation: the paper reports gains that broadly grow with client count; here the largest gains sit at low client counts because the simulated baseline recovers efficiency through statistical multiplexing at high counts. " + closing
}

func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// top80 is Jain's index over the best 80 % of clients.
func top80(xs []float64) float64 {
	return stats.JainFairness(sorted(xs)[len(xs)/5:])
}

// fig17 compares per-client fairness at 30 clients.
func fig17(s *Session, r *Report) {
	b, f := s.base(30).DownMbps, s.fast(30).DownMbps
	r.Rows = []Row{
		{"Jain index (base/fastack)", "0.88 / 0.94", "%.2f / %.2f", []Value{
			{"base_jain", stats.JainFairness(b)}, {"fast_jain", stats.JainFairness(f)}}},
		{"top-80% Jain (base/fastack)", "0.88 / 0.99", "%.2f / %.2f", []Value{
			{"base_top80_jain", top80(b)}, {"fast_top80_jain", top80(f)}}},
	}
	var d strings.Builder
	fmt.Fprintf(&d, "%8s %10s %10s   (Mbps, each column sorted)\n", "rank", "baseline", "fastack")
	bs, fs := sorted(b), sorted(f)
	for i := range bs {
		fmt.Fprintf(&d, "%8d %10.2f %10.2f\n", i, bs[i], fs[i])
	}
	r.Detail = d.String()
}

// fig18 runs the multi-AP matrix, averaged over seeds (two-AP runs have
// high channel-realisation variance). ap1/ap2 split the total by serving
// AP (clients 0-9 on AP 1, 10-19 on AP 2).
func fig18(s *Session, r *Report) {
	const seeds = 3
	var d strings.Builder
	fmt.Fprintf(&d, "%18s %6s %10s %10s %10s\n", "case", "seed", "AP1", "AP2", "total")
	type multi struct{ total, ap1, ap2 float64 }
	run := func(name string, m1, m2 testbed.Mode) multi {
		var avg multi
		for i := int64(0); i < seeds; i++ {
			seed := s.Opt.Seed + i
			res := s.Testbed(m1, 10, fmt.Sprintf("%s-%d", name, i), func(o *testbed.Options) {
				o.Seed = seed
				o.APModes = []testbed.Mode{m1, m2}
			})
			avg.total += res.TotalMbps / seeds
			var ap1, ap2 float64
			for c, g := range res.DownMbps {
				if c < 10 {
					ap1 += g
					avg.ap1 += g / seeds
				} else {
					ap2 += g
					avg.ap2 += g / seeds
				}
			}
			fmt.Fprintf(&d, "%18s %6d %10.1f %10.1f %10.1f\n", name, seed, ap1, ap2, ap1+ap2)
		}
		return avg
	}
	bb := run("base+base", testbed.Baseline, testbed.Baseline)
	bf := run("base+fastack", testbed.Baseline, testbed.FastACK)
	ff := run("fastack+fastack", testbed.FastACK, testbed.FastACK)
	r.Rows = []Row{
		{"both baseline", "251 Mbps", "%.1f Mbps", []Value{{"bb_total_mbps", bb.total}}},
		{"mixed total", "325 Mbps (net positive)", "%.1f Mbps (%+.1f%% vs both-baseline)", []Value{
			{"bf_total_mbps", bf.total}, {"bf_gain_%", 100 * (bf.total - bb.total) / bb.total}}},
		{"mixed split: FastACK AP vs baseline AP", "240 vs 85 Mbps (FastACK AP wins airtime)", "%.1f vs %.1f Mbps", []Value{
			{"bf_fastap_mbps", bf.ap2}, {"bf_baseap_mbps", bf.ap1}}},
		{"both FastACK", "395 Mbps (+51%)", "%.1f Mbps (%+.1f%%)", []Value{
			{"ff_total_mbps", ff.total}, {"ff_gain_%", 100 * (ff.total - bb.total) / bb.total}}},
	}
	r.Notes = "Deviation: the paper's multi-AP totals grow up to +51%; in this substrate the three cases land within ~10% of each other because the baseline APs already keep the shared channel busy. The robust qualitative result is the mixed split: the FastACK AP outperforms its baseline neighbor on the same air."
	r.Detail = d.String()
}

// chaos sweeps consecutive seeds of the canonical data-path fault profile
// (faults.DataChaos) with the FastACK runtime invariants armed, and
// reports guarded FastACK against baseline TCP facing the same faults. An
// invariant trip, or a bypassed flow that never drained its fast-ACK
// debt, is an agent bug and fails the report.
func chaos(s *Session, r *Report) {
	seeds := int64(10)
	if s.Opt.Quick {
		seeds = 4
	}
	var d strings.Builder
	fmt.Fprintf(&d, "%6s %10s %10s %7s %6s %6s %6s %5s %5s %5s %5s %6s\n",
		"seed", "baseline", "fastack", "ratio", "drops", "corr", "badr", "susp", "byp", "drain", "viol", "undr")
	var base, fast, bypasses, drains, violations float64
	worst := 0.0
	for seed := s.Opt.Seed; seed < s.Opt.Seed+seeds; seed++ {
		run := func(mode testbed.Mode) *TestbedResult {
			return s.Testbed(mode, 2, fmt.Sprintf("chaos-%d", seed), func(o *testbed.Options) {
				o.Seed = seed
				o.DataFaults = faults.DataChaos(seed)
				o.FastACK.CheckInvariants = true
			})
		}
		b, f := run(testbed.Baseline), run(testbed.FastACK)
		a, ratio := f.Agents[0], f.TotalMbps/b.TotalMbps
		fmt.Fprintf(&d, "%6d %10.1f %10.1f %7.3f %6d %6d %6d %5d %5d %5d %5d %6d\n",
			seed, b.TotalMbps, f.TotalMbps, ratio,
			f.Faults.WireDrops, f.Faults.WireCorrupts, f.Faults.BADrops,
			a.GuardSuspects, a.GuardBypasses, a.GuardDrains, a.InvariantViolations, f.Undrained)
		base += b.TotalMbps
		fast += f.TotalMbps
		if seed == s.Opt.Seed || ratio < worst {
			worst = ratio
		}
		bypasses += float64(a.GuardBypasses)
		drains += float64(a.GuardDrains)
		violations += float64(a.InvariantViolations) + float64(f.Undrained)
	}
	r.Failed = violations > 0
	r.Rows = []Row{
		{"goodput over all seeds (base/fastack)", "n/a (local repair should beat end-to-end recovery)", "%.1f / %.1f Mbps (x%.2f)", []Value{
			{"chaos_base_mbps", base}, {"chaos_fast_mbps", fast}, {"chaos_ratio", fast / base}}},
		{"worst per-seed ratio", "n/a", "x%.2f", []Value{{"chaos_worst_ratio", worst}}},
		{"guard bypasses / of those drained", "n/a (every bypass must drain)", "%.0f / %.0f", []Value{
			{"guard_bypasses", bypasses}, {"guard_drains", drains}}},
		{"invariant violations + undrained flows", "must be 0", "%.0f" + verdict(r.Failed), []Value{{"chaos_violations", violations}}},
	}
	r.Notes = fmt.Sprintf("%d consecutive seeds from the run seed; both arms face the same seeded wire faults.", seeds)
	r.Detail = d.String()
}

// verdict is what a must-hold row appends to its measured column.
func verdict(violated bool) string {
	if violated {
		return " VIOLATION"
	}
	return ""
}

// uplink reports the reverse-direction regimes (Sharon & Alpert, arXiv
// 1803.10148): pure uplink, where the client is the TCP sender and the AP's
// downlink carries only the server's ACK stream, and a download plus an
// upload per client. On pure uplink the agent has nothing to vouch for: a
// single forged ACK or suppressed client packet there is a violation and
// fails the report. On the bidirectional rows the download direction
// legitimately fast-ACKs, so the counts are simply reported.
func uplink(s *Session, r *Report) {
	for _, t := range []struct {
		name    string
		traffic testbed.Traffic
	}{{"uplink", testbed.TCPUplink}, {"bidirectional", testbed.TCPBidirectional}} {
		for _, n := range []int{3, 10} {
			tune := func(o *testbed.Options) { o.Traffic = t.traffic }
			b := s.Testbed(testbed.Baseline, n, t.name, tune)
			f := s.Testbed(testbed.FastACK, n, t.name, tune)
			a := f.Agents[0]
			name := func(what string) string { return fmt.Sprintf("%s_%d_%s", t.name, n, what) }
			row := Row{Metric: fmt.Sprintf("%s, %d clients", t.name, n)}
			row.Values = []Value{
				{name("base_up_mbps"), b.UpMbps}, {name("fast_up_mbps"), f.UpMbps}, {name("up_ratio"), f.UpMbps / b.UpMbps},
				{name("forged"), float64(a.FastAcksSent)}, {name("suppressed"), float64(a.ClientAcksDropped)},
				{name("flows"), float64(a.FlowsTracked)}}
			if t.traffic == testbed.TCPUplink {
				violated := a.FastAcksSent+a.ClientAcksDropped > 0
				r.Failed = r.Failed || violated
				row.Paper = "goodput parity; forged and suppressed must be 0"
				row.Format = "up %.1f -> %.1f Mbps (x%.3f); forged %.0f, suppressed %.0f" + verdict(violated) + "; %.0f flows tracked"
			} else {
				row.Paper = "n/a (the download side fast-ACKs)"
				row.Format = "up %.1f -> %.1f Mbps (x%.3f); forged %.0f, suppressed %.0f; %.0f flows tracked; down %.1f -> %.1f Mbps"
				row.Values = append(row.Values, Value{name("base_down_mbps"), b.TotalMbps}, Value{name("fast_down_mbps"), f.TotalMbps})
			}
			r.Rows = append(r.Rows, row)
		}
	}
	r.Notes = "The paper's testbed is download-only. Upload goodput is measured at the wired server; on the bidirectional rows FastACK's faster downloads take airtime from the uploads, which is why the upload ratio drops below 1."
}

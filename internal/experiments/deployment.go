package experiments

import (
	"repro/internal/sim"
	"repro/internal/topo"
)

// The §4.6 deployment evaluation: Table 2 and Figs 8–9 on the paper's two
// sites, and the same A/B extrapolated to ~10x their AP density.

// table2 compares daily and peak-hour usage at MNet and UNet.
func table2(s *Session, r *Report) {
	m := s.museum()
	c := s.abRun("campus", topo.Campus, s.Opt.abDur())
	r.Rows = []Row{
		{"UNet daily (res/turbo)", "11.3 / 10.7 (similar)", "%.2f / %.2f", []Value{
			{"UNet_daily_res_TB", c.Reserved.DailyTB.Mean()}, {"UNet_daily_turbo_TB", c.Turbo.DailyTB.Mean()}}},
		{"UNet peak (res/turbo)", "0.584 / 0.542 (uplink-bound)", "%.3f / %.3f", []Value{
			{"UNet_peak_res_TB", c.Reserved.PeakTB.Mean()}, {"UNet_peak_turbo_TB", c.Turbo.PeakTB.Mean()}}},
		{"MNet daily (res/turbo)", "0.562 / 0.564 (similar)", "%.2f / %.2f", []Value{
			{"MNet_daily_res_TB", m.Reserved.DailyTB.Mean()}, {"MNet_daily_turbo_TB", m.Turbo.DailyTB.Mean()}}},
		{"MNet peak gain", "+27%", pct, []Value{
			{"MNet_peak_gain_%", 100 * (m.Turbo.PeakTB.Mean() - m.Reserved.PeakTB.Mean()) / m.Reserved.PeakTB.Mean()}}},
		{"daily sigma small", "yes", "%.2f / %.2f TB", []Value{
			{"MNet_sigma_res_TB", m.Reserved.DailyTB.Stddev()}, {"MNet_sigma_turbo_TB", m.Turbo.DailyTB.Stddev()}}},
	}
	r.Notes = "Absolute TB scale differs from the paper's deployments; the structure (daily parity, uplink-bound campus, museum peak gain) is the reproduced claim."
}

// fig8 compares the TCP latency distributions at MNet.
func fig8(s *Session, r *Report) {
	m := s.museum()
	res, turbo := m.Reserved.Latency, m.Turbo.Latency
	r.Rows = []Row{
		{"median change", "-40%", pct, []Value{{"p50_change_%", 100 * (turbo.Median() - res.Median()) / res.Median()}}},
		{"median (res/turbo)", "-", "%.1f / %.1f ms", []Value{
			{"reserved_p50_ms", res.Median()}, {"turbo_p50_ms", turbo.Median()}}},
		// §4.6.2: the >400 ms tail belongs to slow clients, not the channel plan.
		{">400ms tail (res/turbo)", "similar (slow clients)", pct + " / " + pct, []Value{
			{"reserved_tail400_%", 100 * (1 - res.CDF(400))}, {"turbo_tail400_%", 100 * (1 - turbo.CDF(400))}}},
	}
}

// fig9 compares the bit-rate efficiency distributions at MNet.
func fig9(s *Session, r *Report) {
	m := s.museum()
	res, turbo := m.Reserved.Efficiency, m.Turbo.Efficiency
	r.Rows = []Row{
		{"median gain", "+15%", pct, []Value{{"p50_gain_%", 100 * (turbo.Median() - res.Median()) / res.Median()}}},
		{"median (res/turbo)", "-", "%.3f / %.3f", []Value{
			{"reserved_p50", res.Median()}, {"turbo_p50", turbo.Median()}}},
	}
}

// dense extends the Table 2 A/B beyond the paper's deployments to ~10×
// campus AP density (topo.MDU at ~90 m²/AP, topo.Stadium at the same
// density with event-day client loads). The paper's claim — per-AP width
// adaptation beats a fleet-wide reserved width — should *grow* with
// density, because at 90 m²/AP almost no AP can hold 80 MHz cleanly; this
// experiment measures that extrapolation.
func dense(s *Session, r *Report) {
	dur := sim.Day
	if s.Opt.Quick {
		dur = 6 * sim.Hour
	}
	for _, d := range []struct {
		name  string
		build func(int64) *topo.Scenario
	}{{"MDU", topo.MDU}, {"Stadium", topo.Stadium}} {
		ab := s.abRun(d.name, d.build, dur)
		res, turbo := ab.Reserved, ab.Turbo
		r.Rows = append(r.Rows,
			Row{d.name + " half-day usage (res/turbo)", "n/a (denser than any paper site)", "%.2f / %.2f TB", []Value{
				{d.name + "_usage_res_TB", res.LateTB}, {d.name + "_usage_turbo_TB", turbo.LateTB}}},
			Row{d.name + " ln NetP (res/turbo)", "turbo higher (less contention)", "%.1f / %.1f", []Value{
				{d.name + "_lnNetP_res", res.LnNetP}, {d.name + "_lnNetP_turbo", turbo.LnNetP}}},
			Row{d.name + " APs at 80MHz (res/turbo)", "turbo narrows under density", pct + " / " + pct, []Value{
				{d.name + "_80MHz_res_%", res.Pct80}, {d.name + "_80MHz_turbo_%", turbo.Pct80}}},
		)
	}
	r.Notes = "Extrapolation beyond the paper's sites: at ~90 m²/AP the reserved 80 MHz width self-interferes, so TurboCA's win comes from narrowing, not bonding headroom."
}

package backend

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/faults"
	"repro/internal/littletable"
	"repro/internal/sim"
	"repro/internal/spectrum"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The history against the store it replaced: refPoll and refIngest are
// Poll and ingest as they were while they wrote four littletable tables
// keyed by AP name, and refReport is Report reading them.

type refSample struct {
	ap                                   *topo.AP
	at                                   sim.Time
	demand, util, served, bytes, clients float64
	latencies, effs                      []float64
}

func refPoll(b *Backend, db *littletable.DB) {
	now := b.Engine.Now()
	perf := b.Model.Evaluate(now)
	for _, ap := range b.Scenario.APs {
		if b.faults.Offline(ap.ID, now) || b.faults.DropPoll(ap.ID, now) {
			continue
		}
		p := perf[ap.ID]
		demand, util := p.DemandMbps, p.Utilization
		if b.faults.CorruptPoll(ap.ID, now) {
			demand = b.faults.CorruptValue(demand, ap.ID, 0, now)
			util = b.faults.CorruptValue(util, ap.ID, 1, now)
		}
		n := min(1+int(p.ServedMbps/20), 12)
		s := refSample{ap: ap, at: now, demand: demand, util: util, served: p.ServedMbps,
			bytes: p.ServedMbps * 1e6 / 8 * pollInterval.Seconds(), clients: float64(ap.Mix.Count),
			latencies: make([]float64, n), effs: make([]float64, n)}
		for i := 0; i < n; i++ {
			s.latencies[i], s.effs[i] = b.Model.SampleTCPLatency(p, b.rng), b.Model.SampleBitrateEff(p, b.rng)
		}
		if d, ok := b.faults.DelayPoll(ap.ID, now); ok {
			b.Engine.After(d, func(e *sim.Engine) { refIngest(db, s) })
			continue
		}
		refIngest(db, s)
	}
}

func refIngest(db *littletable.DB, s refSample) {
	if !saneMetric(s.demand, maxSaneDemandMbps) || !saneMetric(s.util, 1) {
		return
	}
	key := s.ap.Name
	db.Table("usage").Insert(key, s.at, map[string]float64{
		"bytes": s.bytes, "demand": s.demand, "served": s.served, "clients": s.clients,
	})
	db.Table("utilization").InsertValue(key, s.at, "util", s.util)
	db.Table("tcp_latency").InsertSamples(key, s.at, "ms", s.latencies)
	db.Table("bitrate_eff").InsertSamples(key, s.at, "eff", s.effs)
}

func refReport(b *Backend, db *littletable.DB, from, to sim.Time) NetworkReport {
	r := NetworkReport{From: from, To: to, Widths: map[spectrum.Width]int{},
		Switches: b.switches, RadarEvents: b.radarHit, DisruptionSeconds: b.disruptionTotal}
	usage, util := db.Table("usage"), db.Table("utilization")
	r.TotalUsageTB = usage.SumField("bytes", from, to) / 1e12
	type kv struct {
		name  string
		bytes float64
	}
	var per []kv
	for _, key := range usage.Keys() {
		sum := 0.0
		for _, row := range usage.Range(key, from, to) {
			sum += row.Field("bytes")
		}
		per = append(per, kv{key, sum})
	}
	sort.Slice(per, func(i, j int) bool { return per[i].bytes > per[j].bytes })
	for i := 0; i < len(per) && i < ReportTopN; i++ {
		us := APUsage{Name: per[i].name, UsageGB: per[i].bytes / 1e9}
		if rows := util.Range(per[i].name, from, to); len(rows) > 0 {
			vals := make([]float64, 0, len(rows))
			for _, row := range rows {
				vals = append(vals, row.Field("util"))
			}
			sort.Float64s(vals)
			us.UtilP50 = vals[len(vals)/2]
		}
		r.BusiestAPs = append(r.BusiestAPs, us)
	}
	for _, ap := range b.Scenario.APs {
		r.Widths[ap.Channel.Width]++
		if ap.Channel.DFS {
			r.DFSCount++
		}
	}
	lat := db.Table("tcp_latency").AggregateField("ms", from, to)
	r.TCPLatencyP50 = lat.Median()
	r.TCPLatencyP90 = lat.Percentile(90)
	r.BitrateEffP50 = db.Table("bitrate_eff").AggregateField("eff", from, to).Median()
	return r
}

// historyScenario is an office whose AP names do not sort by position:
// ap10 sorts before ap2.
func historyScenario() *topo.Scenario {
	sc := topo.Office(11)
	for i, ap := range sc.APs {
		ap.Name = fmt.Sprintf("ap%d", i)
	}
	return sc
}

// TestHistoryMatchesLittletable feeds one report stream to the typed
// history (Poll) and to a littletable.DB (refPoll), on twin backends of
// one seed, and requires every query to agree bit for bit: window sums,
// per-AP sums, utilization medians, both sample sets, the served series
// and the whole Report. The stream has delayed deliveries that overtake
// fresher ones, corrupt reports rejected, two polls at one instant, an AP
// gone silent past the 14-day retention, one back after its first day
// expired (so its storage is reclaimed) and one never heard, and it runs
// past the retention boundary.
func TestHistoryMatchesLittletable(t *testing.T) {
	prof := &faults.Profile{Seed: 5, PollLoss: 0.1, PollDelay: 0.2, PollDelayMax: 12 * sim.Minute, PollCorrupt: 0.05,
		Offline: []faults.Window{{APID: 3, From: sim.Day, To: 15 * sim.Day}, {APID: 4, From: sim.Day, To: 30 * sim.Day},
			{APID: 5, From: 0, To: 30 * sim.Day}}}
	build := func() *Backend {
		opt := DefaultOptions(AlgNone)
		opt.Faults = prof
		return New(opt, historyScenario(), sim.NewEngine(9))
	}
	b, ref := build(), build()
	db := littletable.NewDB()
	db.SetRetention(retention)
	b.Start()
	ref.Engine.Ticker(pollInterval, func(*sim.Engine) { refPoll(ref, db) })
	twice := 2*sim.Day + 7*pollInterval
	b.Engine.Schedule(twice, func(*sim.Engine) { b.Poll() })
	ref.Engine.Schedule(twice, func(*sim.Engine) { refPoll(ref, db) })

	r := rand.New(rand.NewSource(1))
	n := len(b.Scenario.APs)
	var until sim.Time
	for _, until = range []sim.Time{sim.Day, 2*sim.Day + 8*pollInterval, 9 * sim.Day, 16*sim.Day + 3*sim.Hour} {
		b.Engine.RunUntil(until)
		ref.Engine.RunUntil(until)
		windows := [][2]sim.Time{{0, until + 1}, {until - sim.Day, until}, {twice, twice + 1}, {until, 0}}
		for k := 0; k < 20; k++ {
			from := sim.Time(r.Int63n(int64(until)))
			windows = append(windows, [2]sim.Time{from, from + sim.Time(r.Int63n(int64(2*sim.Day)))})
		}
		for _, w := range windows {
			checkHistoryWindow(t, b, ref, db, w[0], w[1])
		}
	}
	ctl := b.Control()
	if ctl.PollsDelayed == 0 || ctl.PollsRejected == 0 {
		t.Fatalf("no delayed or rejected reports: %+v", ctl)
	}
	if len(b.hist.window(4, 0, until+1)) != 0 || !b.rows[4].reported {
		t.Fatal("AP 4's rows did not all age out, or it never reported")
	}
	// AP 3's first day expired while it was away; its slice filled
	// after it came back, so the expired half was reclaimed.
	if at := b.hist.aps[3].recs[0].At; at < sim.Day {
		t.Fatalf("AP 3's oldest kept row is at %v: nothing was reclaimed", at)
	}
	keys := db.Table("usage").Keys()
	if len(keys) != n-1 || keys[2] != "ap10" {
		t.Fatalf("store keys %v: want every AP but ap5, ap10 third", keys)
	}
}

func checkHistoryWindow(t *testing.T, b, ref *Backend, db *littletable.DB, from, to sim.Time) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("[%v, %v) %s: %v, littletable %v", from, to, what, got, want)
		}
	}
	sameSample := func(what string, got, want *stats.Sample) {
		t.Helper()
		same(what+" mean", got.Mean(), want.Mean()) // accumulated in insertion order
		if got.N() != want.N() {
			t.Fatalf("[%v, %v) %s: %d samples, littletable %d", from, to, what, got.N(), want.N())
		}
		g, w := got.Values(), want.Values()
		for i := range g {
			same(fmt.Sprintf("%s sample %d", what, i), g[i], w[i])
		}
	}
	same("total bytes", b.UsageBytes(from, to), db.Table("usage").SumField("bytes", from, to))
	lat, eff := b.Samples(from, to)
	sameSample("latency", lat, db.Table("tcp_latency").AggregateField("ms", from, to))
	sameSample("efficiency", eff, db.Table("bitrate_eff").AggregateField("eff", from, to))
	for i, ap := range b.Scenario.APs {
		recs := b.hist.window(i, from, to)
		rows := db.Table("usage").Range(ap.Name, from, to)
		utils := db.Table("utilization").FieldRange(ap.Name, "util", from, to)
		served := db.Table("usage").FieldRange(ap.Name, "served", from, to)
		if len(recs) != len(rows) || len(utils) != len(rows) {
			t.Fatalf("[%v, %v) %s: %d rows, littletable %d usage and %d utilization", from, to, ap.Name, len(recs), len(rows), len(utils))
		}
		sum, refSum := 0.0, 0.0
		for k, rec := range recs {
			sum += rec.Bytes
			refSum += rows[k].Field("bytes")
			if rec.At != rows[k].At || rec.Demand != rows[k].Field("demand") || rec.Clients != rows[k].Field("clients") ||
				rec.Util != utils[k].V || rec.Served != served[k].V {
				t.Fatalf("[%v, %v) %s row %d: %+v, littletable %v util %v", from, to, ap.Name, k, rec, rows[k], utils[k])
			}
		}
		same(ap.Name+" bytes", sum, refSum)
		got := b.Served(i, from, to)
		for k := range got {
			same(fmt.Sprintf("%s served %d", ap.Name, k), got[k], served[k].V)
		}
	}
	got, want := b.Report(from, to), refReport(ref, db, from, to)
	same("report usage", got.TotalUsageTB, want.TotalUsageTB)
	same("report latency p50", got.TCPLatencyP50, want.TCPLatencyP50)
	same("report latency p90", got.TCPLatencyP90, want.TCPLatencyP90)
	same("report efficiency p50", got.BitrateEffP50, want.BitrateEffP50)
	if got.String() != want.String() || len(got.BusiestAPs) != len(want.BusiestAPs) {
		t.Fatalf("[%v, %v) report:\n%s\nlittletable:\n%s", from, to, got, want)
	}
	for k := range got.BusiestAPs {
		g, w := got.BusiestAPs[k], want.BusiestAPs[k]
		if g.Name != w.Name {
			t.Fatalf("[%v, %v) busiest %d: %s, littletable %s", from, to, k, g.Name, w.Name)
		}
		same(g.Name+" usage GB", g.UsageGB, w.UsageGB)
		same(g.Name+" util p50", g.UtilP50, w.UtilP50)
	}
}

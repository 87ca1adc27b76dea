package backend

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topo"
)

// Telemetry history (§2.2: the backend keeps per-AP statistics in
// LittleTable). Every report the poller accepts becomes one pollRec in
// its AP's time-ordered history, and the report's latency and bit-rate-
// efficiency samples sit in that AP's flat sample slices at the record's
// offset. The key space and the row shape are known when the backend is
// built, so an AP is its position (DESIGN §3.8) and a row is a struct.
//
// Reads are exact against a store keyed by AP name: every window query
// visits APs in sorted name order (ap10 before ap2) and each AP's rows in
// (At, delivery) order, so every float sum and every sample set
// accumulates as a name-keyed table's sorted scan did. Rows older than
// the newest accepted At minus retention are invisible to reads; their
// storage is reclaimed when an AP's record slice would otherwise grow.

// pollRec is one accepted report: the usage row {At, Bytes, Demand,
// Served, Clients}, the utilization value, and where the report's n
// latency and efficiency samples start in its AP's sample slices.
type pollRec struct {
	At                                   sim.Time
	Bytes, Demand, Served, Clients, Util float64
	off, n                               int32
}

// apHistory is one AP's records, sorted by At (ties in delivery order),
// and the samples they point into, in delivery order.
type apHistory struct {
	recs     []pollRec
	lat, eff []float64
}

// history is the telemetry of every AP, by position. A backend built
// with DisableTelemetryHistory has none (a nil *history).
type history struct {
	aps []apHistory
	// byName is every AP position in ascending name order, fixed at New.
	byName []int
	// newest is the newest At ever accepted; rows older than newest -
	// retention are out of every window.
	newest sim.Time
}

func newHistory(sc *topo.Scenario) *history {
	h := &history{aps: make([]apHistory, len(sc.APs)), byName: make([]int, len(sc.APs))}
	for i := range h.byName {
		h.byName[i] = i
	}
	sort.Slice(h.byName, func(a, b int) bool { return sc.APs[h.byName[a]].Name < sc.APs[h.byName[b]].Name })
	return h
}

// reserve extends AP ap's sample slices by n and returns the new tails,
// for the caller to fill and then commit. Nil on a nil history.
func (h *history) reserve(ap, n int) (lat, eff []float64) {
	if h == nil {
		return nil, nil
	}
	a := &h.aps[ap]
	a.reclaim(h.newest - retention)
	off := len(a.lat)
	a.lat = append(a.lat, make([]float64, n)...)
	a.eff = append(a.eff, make([]float64, n)...)
	return a.lat[off:], a.eff[off:]
}

// commit records r for AP ap; its samples are the r.n that reserve last
// returned for the AP. A report that arrives after a fresher one (a
// delayed delivery) is inserted after every record with At <= r.At.
func (h *history) commit(ap int, r pollRec) {
	a := &h.aps[ap]
	r.off = int32(len(a.lat)) - r.n
	h.newest = max(h.newest, r.At)
	k := len(a.recs)
	if k > 0 && a.recs[k-1].At > r.At {
		k = sort.Search(len(a.recs), func(j int) bool { return a.recs[j].At > r.At })
	}
	a.recs = append(a.recs, pollRec{})
	copy(a.recs[k+1:], a.recs[k:])
	a.recs[k] = r
}

// reclaim drops the records older than cutoff, and their samples, when
// the record slice is full and at least half of it has expired, so the
// copy is paid once per doubling of the live window.
func (a *apHistory) reclaim(cutoff sim.Time) {
	if len(a.recs) < cap(a.recs) || len(a.recs) == 0 || a.recs[0].At >= cutoff {
		return
	}
	lo := sort.Search(len(a.recs), func(j int) bool { return a.recs[j].At >= cutoff })
	if 2*lo < len(a.recs) {
		return
	}
	live := a.recs[lo:]
	n := 0
	for _, r := range live {
		n += int(r.n)
	}
	// Samples are in delivery order and records in time order, so the
	// live samples are copied out rather than moved in place.
	lat, eff := make([]float64, 0, 2*n), make([]float64, 0, 2*n)
	for j := range live {
		r := &live[j]
		off := int32(len(lat))
		lat = append(lat, a.lat[r.off:r.off+r.n]...)
		eff = append(eff, a.eff[r.off:r.off+r.n]...)
		r.off = off
	}
	a.recs = append(a.recs[:0], live...)
	a.lat, a.eff = lat, eff
}

// window returns AP ap's visible records with from <= At < to.
func (h *history) window(ap int, from, to sim.Time) []pollRec {
	recs := h.aps[ap].recs
	from = max(from, h.newest-retention)
	lo := sort.Search(len(recs), func(j int) bool { return recs[j].At >= from })
	hi := sort.Search(len(recs), func(j int) bool { return recs[j].At >= to })
	return recs[lo:max(lo, hi)]
}

// sumBytes is the bytes every AP served over [from, to).
func (h *history) sumBytes(from, to sim.Time) float64 {
	sum := 0.0
	if h == nil {
		return sum
	}
	for _, ap := range h.byName {
		for _, r := range h.window(ap, from, to) {
			sum += r.Bytes
		}
	}
	return sum
}

// samples collects every AP's latency and efficiency samples over [from,
// to).
func (h *history) samples(from, to sim.Time) (lat, eff *stats.Sample) {
	lat, eff = stats.NewSample(0), stats.NewSample(0)
	if h == nil {
		return lat, eff
	}
	for _, ap := range h.byName {
		a := &h.aps[ap]
		for _, r := range h.window(ap, from, to) {
			lat.AddAll(a.lat[r.off : r.off+r.n]...)
			eff.AddAll(a.eff[r.off : r.off+r.n]...)
		}
	}
	return lat, eff
}

// UsageBytes returns the bytes the network's APs served over [from, to)
// (the usage behind Table 2), 0 without telemetry history.
func (b *Backend) UsageBytes(from, to sim.Time) float64 { return b.hist.sumBytes(from, to) }

// Samples returns the TCP latency (ms, Fig 8) and bit-rate-efficiency
// (Fig 9) samples polled over [from, to) across all APs, empty without
// telemetry history.
func (b *Backend) Samples(from, to sim.Time) (lat, eff *stats.Sample) {
	return b.hist.samples(from, to)
}

// Served returns the served Mbps of each report AP ap delivered for
// [from, to), in time order (Fig 6), nil without telemetry history.
func (b *Backend) Served(ap int, from, to sim.Time) []float64 {
	if b.hist == nil {
		return nil
	}
	recs := b.hist.window(ap, from, to)
	out := make([]float64, len(recs))
	for i, r := range recs {
		out[i] = r.Served
	}
	return out
}

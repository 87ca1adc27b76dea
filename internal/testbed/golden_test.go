package testbed

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/tcpstack"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_testbed.txt")

const (
	goldenDur    = 2 * sim.Second
	goldenWarmup = 500 * sim.Millisecond
)

// goldenRows are the data-plane shapes testdata/golden_testbed.txt pins,
// each run at every seed of goldenSeeds: the two benchmark shapes, the
// tail-drop/SACK-recovery regime of a Baseline AP, pure uplink, and one
// run with every data-path fault class armed.
var goldenRows = []struct {
	name string
	set  func(o *Options, seed int64)
}{
	{"fastack_bulk30_badhint", func(o *Options, _ int64) {
		o.APModes = []Mode{FastACK}
		o.ClientsPerAP = 30
		o.BadHintRate = 0.015
	}},
	{"baseline_bidir10", func(o *Options, _ int64) {
		o.APModes = []Mode{Baseline}
		o.ClientsPerAP = 10
		o.Traffic = TCPBidirectional
	}},
	{"fastack_bidir10", func(o *Options, _ int64) {
		o.APModes = []Mode{FastACK}
		o.ClientsPerAP = 10
		o.Traffic = TCPBidirectional
	}},
	{"baseline_bulk10", func(o *Options, _ int64) {
		o.APModes = []Mode{Baseline}
		o.ClientsPerAP = 10
	}},
	{"fastack_uplink10", func(o *Options, _ int64) {
		o.APModes = []Mode{FastACK}
		o.ClientsPerAP = 10
		o.Traffic = TCPUplink
	}},
	{"fastack_faults2x2", func(o *Options, seed int64) {
		o.APModes = []Mode{FastACK, FastACK}
		o.ClientsPerAP = 2
		// A debt-stall timeout shorter than the disconnect window, so that
		// a flow is bypassed inside the run and the guard's trim-to-debt and
		// drain path is pinned too.
		o.FastACK.Guard.DebtStallTimeout = 200 * sim.Millisecond
		o.DataFaults = &faults.DataProfile{
			Seed:     seed,
			WireLoss: 0.01, WireReorder: 0.02, WireDup: 0.01, WireCorrupt: 0.01, BALoss: 0.05,
			Roams:       []faults.Roam{{Client: 0, ToAP: 1, At: 1200 * sim.Millisecond}},
			Disconnects: []faults.Window{{APID: 2, From: 700 * sim.Millisecond, To: 1000 * sim.Millisecond}},
		}
	}},
}

var goldenSeeds = []int64{20170811, 4242}

// goldenRow runs one shape at one seed and renders everything the data
// plane computed — event count, goodputs and latency sums as float bits,
// every endpoint's counters, the medium, the agents, the fault tallies —
// as text lines.
func goldenRow(name string, seed int64, set func(*Options, int64)) string {
	opt := DefaultOptions()
	opt.Seed = seed
	opt.Warmup = goldenWarmup
	opt.FastACK.CheckInvariants = true
	set(&opt, seed)
	tb := New(opt)
	tb.Run(goldenDur)

	var b strings.Builder
	bits := math.Float64bits
	sample := func(label string, s *stats.Sample) {
		fmt.Fprintf(&b, "%s n=%d sum=%016x\n", label, s.N(), bits(s.Sum()))
	}
	fmt.Fprintf(&b, "== %s seed=%d\n", name, seed)
	fmt.Fprintf(&b, "fired %d\n", tb.Engine.Fired())
	sample("lat_tcp", tb.LatTCP)
	sample("lat_80211", tb.Lat80211)
	ms := tb.Medium.Stats()
	fmt.Fprintf(&b, "medium busy=%016x frames=%d collisions=%d interferer=%016x\n",
		bits(ms.BusyUs), ms.Frames, ms.Collisions, bits(ms.InterfererUs))
	fmt.Fprintf(&b, "faults %+v\n", tb.Faults)
	for i, st := range tb.AgentStatsPerAP() {
		fmt.Fprintf(&b, "agent[%d] %+v\n", i, st)
	}
	tx := func(label string, s *tcpstack.Sender) {
		if s == nil {
			return
		}
		st := s.Stats()
		fmt.Fprintf(&b, "  %s sent=%d rtx=%d frtx=%d rto=%d rtt_samples=%d srtt=%d\n", label,
			st.SegmentsSent, st.Retransmits, st.FastRetransmits, st.Timeouts, st.RTTSamples, int64(st.SRTT))
	}
	rx := func(label string, r *tcpstack.Receiver) {
		if r == nil {
			return
		}
		st := r.Stats()
		fmt.Fprintf(&b, "  %s in=%d dup=%d ooo=%d acks=%d\n", label,
			st.SegmentsIn, st.DupSegments, st.OutOfOrder, st.AcksSent)
	}
	for i, c := range tb.Clients {
		fmt.Fprintf(&b, "client[%d] ap=%d down=%016x up=%016x\n", i, c.AP.Index,
			bits(c.GoodputMbps(goldenDur)), bits(c.UplinkGoodputMbps(goldenDur)))
		tx("down_tx", tb.Senders[i].TCP)
		rx("down_rx", c.Receiver)
		tx("up_tx", c.Uplink)
		rx("up_rx", tb.Senders[i].UpRX)
	}
	return b.String()
}

// TestGoldenTestbed is the data plane's cross-commit golden: sim, mac,
// tcpstack, fastack and the testbed glue run end to end and every number
// they produce must stay bit-identical. A behaviour-preserving change
// passes it unmodified; a deliberate behaviour change regenerates the rows
// it moves with `go test ./internal/testbed -run GoldenTestbed -update` and
// names them.
func TestGoldenTestbed(t *testing.T) {
	var got strings.Builder
	for _, seed := range goldenSeeds {
		for _, row := range goldenRows {
			got.WriteString(goldenRow(row.name, seed, row.set))
		}
	}
	golden := filepath.Join("testdata", "golden_testbed.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got.String() == string(want) {
		return
	}
	// Name the first differing line and the row it belongs to.
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	row := ""
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if strings.HasPrefix(wl[i], "== ") {
			row = wl[i]
		}
		if gl[i] != wl[i] {
			t.Fatalf("testbed diverged from golden in row %q, line %d:\n  got  %s\n  want %s", row, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("testbed output has %d lines, golden %d", len(gl), len(wl))
}

package fastack

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// traceRecorder renders every agent interaction as one deterministic text
// line, the format of testdata/golden_trace.txt.
type traceRecorder struct {
	h     *harness
	lines []string
	// guard (golden_guard_trace.txt) labels each line with its agent and
	// client port and appends the flow's guard state and the agent's Stats.
	guard bool
	ap    string
}

// event renders an event's time (and, in guard mode, its agent and flow)
// ahead of its description.
func (r *traceRecorder) event(key packet.Flow, format string, args ...any) string {
	ev := fmt.Sprintf("t=%-6d ", r.h.now)
	if r.guard {
		ev += fmt.Sprintf("%s:%d ", r.ap, key.Dst.Port)
	}
	return ev + fmt.Sprintf(format, args...)
}

// state renders the guard column for the given flows, then the Stats.
func (r *traceRecorder) state(keys ...packet.Flow) string {
	var b strings.Builder
	b.WriteString(" ||")
	for _, k := range keys {
		st, ok := r.h.a.FlowGuardState(k)
		if len(keys) > 1 {
			fmt.Fprintf(&b, " :%d", k.Dst.Port)
		}
		if ok {
			fmt.Fprintf(&b, " %s", st)
		} else {
			b.WriteString(" gone")
		}
	}
	fmt.Fprintf(&b, " %+v", r.h.a.Stats())
	return b.String()
}

// note records a non-datapath event (sweep, export, import).
func (r *traceRecorder) note(event string, keys ...packet.Flow) {
	r.lines = append(r.lines, event+r.state(keys...))
}

func (r *traceRecorder) record(event string, key packet.Flow, disp Disposition) {
	line := event + " ->" + dispString(disp)
	if r.guard {
		line += r.state(key)
	}
	r.lines = append(r.lines, line)
}

// dispString renders a disposition: the verdict, then every injected
// packet's ACK, window and SACK (toward the sender) or sequence and length
// (toward the client).
func dispString(disp Disposition) string {
	var b strings.Builder
	if disp.Forward {
		b.WriteString(" fwd")
	}
	if disp.Elevate {
		b.WriteString(" elevate")
	}
	if !disp.Forward && !disp.Elevate {
		b.WriteString(" drop")
	}
	for _, d := range disp.ToSender {
		fmt.Fprintf(&b, " | toSender ack=%d win=%d", d.TCP.Ack, d.TCP.Window)
		for _, s := range d.TCP.SACK {
			fmt.Fprintf(&b, " sack=%d-%d", s.Left, s.Right)
		}
	}
	for _, d := range disp.ToClient {
		fmt.Fprintf(&b, " | toClient seq=%d len=%d", d.TCP.Seq, d.PayloadLen)
	}
	return b.String()
}

func (r *traceRecorder) downlink(d *packet.Datagram) {
	key := d.Flow()
	ev := r.event(key, "downlink  seq=%d len=%d", d.TCP.Seq, d.PayloadLen)
	if d.TCP.HasFlag(packet.FlagSYN) {
		ev += " SYN"
	}
	if d.TCP.HasFlag(packet.FlagRST) {
		ev += " RST"
	}
	r.record(ev, key, r.h.a.HandleDownlink(d))
}

func (r *traceRecorder) wirelessAck(d *packet.Datagram, ok bool) {
	key := d.Flow()
	r.record(r.event(key, "80211ack  seq=%d ok=%v", d.TCP.Seq, ok), key, r.h.a.HandleWirelessAck(d, ok))
}

func (r *traceRecorder) uplink(d *packet.Datagram) {
	key := d.Flow().Reverse()
	ev := r.event(key, "uplink    ack=%d win=%d", d.TCP.Ack, d.TCP.Window)
	for _, s := range d.TCP.SACK {
		ev += fmt.Sprintf(" sack=%d-%d", s.Left, s.Right)
	}
	if d.TCP.HasFlag(packet.FlagSYN) {
		ev += " SYN"
	}
	r.record(ev, key, r.h.a.HandleUplink(d))
}

// checkGolden compares a recorded transcript with testdata/<name>,
// rewriting it first under -update.
func checkGolden(t *testing.T, name string, lines []string) {
	t.Helper()
	got := strings.Join(lines, "\n") + "\n"
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden trace (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("agent trace diverged from %s.\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestGoldenTrace replays a fixed end-to-end scenario — handshake,
// in-order delivery, an A-MPDU ACKed out of order, a MAC drop with cache
// redrive, client dup-ACKs triggering a SACK-guided local retransmission,
// an upstream hole with emulated dup-ACK, and its repair — and compares
// every disposition the agent returns, byte for byte, against the golden
// transcript. Any behavioral change to the agent shows up as a readable
// trace diff; regenerate deliberately with `go test -run GoldenTrace
// -update`.
func TestGoldenTrace(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DupAckThreshold = 2
	r := &traceRecorder{h: newHarness(cfg)}
	r.h.handshake(t)

	// Phase 1: three segments delivered in order, each 802.11-ACKed.
	for i := uint32(0); i < 3; i++ {
		r.downlink(data(1000 + i*segLen))
	}
	r.h.now += sim.Millisecond
	for i := uint32(0); i < 3; i++ {
		r.wirelessAck(data(1000+i*segLen), true)
	}

	// Phase 2: an A-MPDU of three more segments whose block ACK arrives
	// out of order — no fast ACK may pass the gap; the drain coalesces.
	for i := uint32(3); i < 6; i++ {
		r.downlink(data(1000 + i*segLen))
	}
	r.h.now += sim.Millisecond
	r.wirelessAck(data(1000+4*segLen), true)
	r.wirelessAck(data(1000+5*segLen), true)
	r.wirelessAck(data(1000+3*segLen), true)

	// Phase 3: a seventh segment's MPDU is dropped by the MAC after
	// retries; the agent re-drives it from the cache.
	r.downlink(data(7000))
	r.h.now += sim.Millisecond
	r.wirelessAck(data(7000), false)
	r.wirelessAck(data(7000), true)

	// Phase 4: the client turns out to be missing 5000..7000 (bad hints):
	// it dup-ACKs 5000 with SACK for 7000..8000. The second dup-ACK
	// triggers a local retransmission of exactly the uncovered segments.
	r.h.now += sim.Millisecond
	dup := func() *packet.Datagram {
		d := clientAck(5000, 2048)
		d.TCP.SACK = []packet.SACKBlock{{Left: 7000, Right: 8000}}
		return d
	}
	r.uplink(clientAck(5000, 2048))
	r.uplink(dup())
	r.uplink(dup())

	// Phase 5: client catches up; cumulative progress purges the cache.
	r.h.now += sim.Millisecond
	r.uplink(clientAck(8000, 2048))

	// Phase 6: upstream loss — 8000..9000 never reaches the AP; 9000
	// arrives, the agent emulates the client's dup-ACK with SACK, then the
	// sender's retransmission fills the hole.
	r.h.now += sim.Millisecond
	r.downlink(data(9000))
	r.downlink(data(8000))

	checkGolden(t, "golden_trace.txt", r.lines)
}

// TestGoldenGuardTrace walks the safety guard's whole life cycle on two
// flows and one roam-to agent, and pins every disposition together with
// the flow's guard state and the agent's Stats after it, the way
// TestGoldenTrace pins the active path:
//
//  1. debt builds, a sequence jump parks the flow in Suspect and a second
//     anomaly without client progress trips Bypass;
//  2. in bypass, a duplicate ACK inside the debt range is repaired and one
//     at or above seq_fack is not; a wild ACK, a stale ACK, a MAC drop
//     inside and outside the debt range, and the drain belt after
//     DebtStallTimeout;
//  3. client progress moves the flow to Draining, then drains it into
//     PassThrough;
//  4. an RST with debt, Sweep past IdleExpiry and past DrainExpiry, and
//     the Import of a bypassed flow, drained on the roam-to agent.
func TestGoldenGuardTrace(t *testing.T) {
	cfg := guardConfig()
	cfg.DupAckThreshold = 2
	cfg.Guard.StormThreshold = 2
	h := newHarness(cfg)
	g := h.a.cfg.Guard // with defaults applied
	r := &traceRecorder{h: h, guard: true, ap: "ap1"}
	clientB := packet.Endpoint{Addr: clientEP.Addr, Port: 81}
	keyA, keyB := flowKey(), packet.Flow{Proto: packet.ProtoTCP, Src: serverEP, Dst: clientB}
	dataB := func(seq uint32) *packet.Datagram {
		d := packet.NewTCPDatagram(serverEP, clientB, segLen)
		d.TCP.Seq = seq
		d.TCP.Flags = packet.FlagACK | packet.FlagPSH
		return d
	}
	ackB := func(ack uint32, sack ...packet.SACKBlock) *packet.Datagram {
		d := packet.NewTCPDatagram(clientB, serverEP, 0)
		d.TCP.Ack = ack
		d.TCP.Flags = packet.FlagACK
		d.TCP.Window = 2048
		d.TCP.SACK = sack
		return d
	}
	sackAck := func(ack uint32, sack ...packet.SACKBlock) *packet.Datagram {
		d := clientAck(ack, 2048)
		d.TCP.SACK = sack
		return d
	}
	h.handshake(t)
	benchHandshake(h.a, serverEP, clientB)

	// 1. Debt: A holds [1000, 4000) with 4000..6000 on the air, B holds
	// [1000, 3000). A sequence jump parks each in Suspect; with no client
	// progress all along, a wild ACK (A) and a second jump (B) trip Bypass.
	for i := uint32(0); i < 5; i++ {
		r.downlink(data(1000 + i*segLen))
	}
	r.downlink(dataB(1000))
	r.downlink(dataB(2000))
	h.now += sim.Millisecond
	for i := uint32(0); i < 3; i++ {
		r.wirelessAck(data(1000+i*segLen), true)
	}
	r.wirelessAck(dataB(1000), true)
	r.wirelessAck(dataB(2000), true)
	h.now += suspectWindow + 50*sim.Millisecond
	r.downlink(data(6000 + maxSeqJump + 1))
	r.downlink(dataB(3000 + maxSeqJump + 1))
	h.now += 10 * sim.Millisecond
	r.uplink(clientAck(6000+5_000_000, 2048))
	r.downlink(dataB(3000 + maxSeqJump + 1))
	tripA := h.now

	// 2. Bypass. A's client misses 1000 and 2000 but holds 3000: the
	// second duplicate repairs both from the cache (inside the debt
	// range, and its ACK still reaches the sender).
	h.now += 10 * sim.Millisecond
	r.uplink(clientAck(1000, 2048))
	r.uplink(sackAck(1000, packet.SACKBlock{Left: 3000, Right: 4000}))
	r.uplink(sackAck(1000, packet.SACKBlock{Left: 3000, Right: 4000}))
	// A duplicate ACK can sit at or above seq_fack only once seq_high has
	// wrapped half the sequence space (an ACK above seq_TCP is progress,
	// one above seq_high is wild). A bypassed flow follows any sequence
	// into seq_high, so one mangled segment 2^31 out puts B there; its
	// duplicates at 2^31+2800 — past seq_fack 3000 by wrap — repair
	// nothing, although their SACK names debt bytes.
	r.downlink(dataB(1<<31 + 1800))
	for i := 0; i < 3; i++ {
		r.uplink(ackB(1<<31+2800, packet.SACKBlock{Left: 2000, Right: 3000}))
	}
	// A: a wild ACK is forwarded and never learned from; a stale one is
	// forwarded; a MAC drop is re-driven inside the debt range only.
	r.uplink(clientAck(6000+5_000_000, 2048))
	r.uplink(clientAck(500, 2048))
	r.wirelessAck(data(2000), false)
	r.wirelessAck(data(4000), false)
	// The debt head has not moved for DebtStallTimeout since the trip: the
	// next client ACK carries the drain belt's re-drive of seq_TCP.
	h.now = tripA + g.DebtStallTimeout + sim.Millisecond
	r.uplink(clientAck(1000, 2048))

	// 3. Progress drains A: Draining, then PassThrough once the client
	// acknowledges past seq_fack (4000..5000 delivered, its 802.11
	// feedback lost). A tombstone passes everything untouched.
	h.now += 10 * sim.Millisecond
	r.uplink(clientAck(2000, 2048))
	r.uplink(clientAck(5000, 2048))
	r.uplink(clientAck(5000, 2048))
	r.downlink(data(6000))

	// 4. A new incarnation of A builds debt [20000, 22000) and is RST: it
	// drains first rather than being discarded. Sweep retains both
	// indebted bypassed flows past IdleExpiry and reaps them past
	// DrainExpiry; A's exported state, imported on a second agent, arrives
	// bypassed (no resync ACK) and drains there.
	h.now += sim.Second
	syn := packet.NewTCPDatagram(serverEP, clientEP, 0)
	syn.TCP.Seq = 19999
	syn.TCP.Flags = packet.FlagSYN
	syn.TCP.WindowScale = 7
	r.downlink(syn)
	synAck := packet.NewTCPDatagram(clientEP, serverEP, 0)
	synAck.TCP.Flags = packet.FlagSYN | packet.FlagACK
	synAck.TCP.Window = 4096
	synAck.TCP.WindowScale = 7
	synAck.TCP.SACKPermitted = true
	r.uplink(synAck)
	r.downlink(data(20000))
	r.downlink(data(21000))
	h.now += sim.Millisecond
	r.wirelessAck(data(20000), true)
	r.wirelessAck(data(21000), true)
	rst := packet.NewTCPDatagram(serverEP, clientEP, 0)
	rst.TCP.Seq = 22000
	rst.TCP.Flags = packet.FlagRST
	r.downlink(rst)
	ex, _ := h.a.Export(keyA)
	r.note(r.event(keyA, "export    guard=%s seq_tcp=%d seq_fack=%d cache=%d", ex.Guard, ex.SeqTCP, ex.SeqFack, len(ex.Cache)), keyA)
	h.now += cfg.IdleExpiry + sim.Millisecond
	r.note(r.event(keyA, "sweep     removed=%d", h.a.Sweep()), keyA, keyB)
	h.now += g.DrainExpiry
	r.note(r.event(keyA, "sweep     removed=%d", h.a.Sweep()), keyA, keyB)

	h2 := newHarness(cfg)
	h2.now = h.now
	r.h, r.ap = h2, "ap2"
	r.note(r.event(keyA, "import    resync=%v", h2.a.Import(ex) != nil), keyA)
	r.uplink(clientAck(22000, 2048))

	checkGolden(t, "golden_guard_trace.txt", r.lines)
}

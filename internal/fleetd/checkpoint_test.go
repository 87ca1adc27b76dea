package fleetd

import (
	"bytes"
	"container/heap"
	"errors"
	"strings"
	"testing"

	"repro/internal/codec"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// ckptFixture is a small built fleet two hours in, its last network
// quarantined: the state every perturbation below starts from.
func ckptFixture(t testing.TB) (*Controller, *netState, *netState) {
	t.Helper()
	c := New(testConfig(61))
	if err := c.AddFleet(testFleet(61, 3)); err != nil {
		t.Fatal(err)
	}
	c.Run(2 * sim.Hour)
	nets := c.nets()
	live, quar := nets[0], nets[len(nets)-1]
	c.quarantine(quar)
	if live.be == nil || quar.be == nil {
		t.Fatal("fixture networks are not built")
	}
	return c, live, quar
}

// TestCheckpointBytesCoverDurableState: every durable field reaches the
// checkpoint bytes — moving any one of them moves the bytes — and nothing
// derived from a quarantined network's backend does.
func TestCheckpointBytesCoverDurableState(t *testing.T) {
	c, _, _ := ckptFixture(t)
	base := c.CheckpointBytes()
	for _, tc := range []struct {
		name string
		move func(c *Controller, live, quar *netState)
	}{
		{"id", func(_ *Controller, ns, _ *netState) { ns.id += 100 }},
		{"key", func(_ *Controller, ns, _ *netState) { ns.key += "x" }},
		{"apCount", func(_ *Controller, ns, _ *netState) { ns.apCount++ }},
		{"built", func(_ *Controller, ns, _ *netState) { ns.build = func() {} }},
		{"quarantined", func(_ *Controller, ns, _ *netState) { ns.quarantined = true }},
		{"passes", func(_ *Controller, ns, _ *netState) { ns.passes[levelMid]++ }},
		{"shed", func(_ *Controller, ns, _ *netState) { ns.shed[levelDeep]++ }},
		{"coalesced", func(_ *Controller, ns, _ *netState) { ns.coalesced++ }},
		{"quarantined's passes", func(_ *Controller, _, ns *netState) { ns.passes[levelFast]++ }},
		{"logNetP5", func(_ *Controller, ns, _ *netState) { ns.be.Service.LastLogNetP[spectrum.Band5] -= 1e-12 }},
		{"logNetP24", func(_ *Controller, ns, _ *netState) { ns.be.Service.LastLogNetP[spectrum.Band2G4] -= 1e-12 }},
		{"degraded", func(_ *Controller, ns, _ *netState) { ns.be.Service.DegradedTotal++ }},
		{"planner pass", func(_ *Controller, ns, _ *netState) {
			ns.engine.RunUntil(ns.engine.Now() + sim.Hour)
			ns.be.Service.RunOnce(levelHops[levelDeep])
		}},
		{"deadline", func(c *Controller, ns, _ *netState) {
			for i, e := range c.sched.h {
				if e.id == ns.id && e.level == levelMid {
					c.sched.h[i].at++
					heap.Fix(&c.sched.h, i)
				}
			}
		}},
		{"now", func(c *Controller, _, _ *netState) { c.now++ }},
		{"nextCkptAt", func(c *Controller, _, _ *netState) { c.nextCkptAt++ }},
	} {
		c, live, quar := ckptFixture(t)
		tc.move(c, live, quar)
		if bytes.Equal(c.CheckpointBytes(), base) {
			t.Errorf("moving %s left the checkpoint bytes unchanged", tc.name)
		}
	}

	c, _, quar := ckptFixture(t)
	quar.be.Service.LastLogNetP[spectrum.Band5] -= 1
	quar.be.Service.LastLogNetP[spectrum.Band2G4] -= 1
	quar.be.Service.DegradedTotal++
	quar.engine.RunUntil(quar.engine.Now() + sim.Hour)
	quar.be.Service.RunOnce(levelHops[levelDeep])
	if !bytes.Equal(c.CheckpointBytes(), base) {
		t.Error("a quarantined network's planner state reached the checkpoint bytes")
	}
}

// TestOpenRejectsBadCheckpoint: a stored checkpoint Open cannot read a
// clock from is an error, not a replay without verification.
func TestOpenRejectsBadCheckpoint(t *testing.T) {
	cfg := testConfig(67)
	store := NewMemStore(nil)
	c := mustOpen(t, cfg, store)
	if err := c.AddFleet(testFleet(67, 2)); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTo(sim.Hour); err != nil {
		t.Fatal(err)
	}
	if store.ckpt == nil {
		t.Fatal("no checkpoint committed; test is vacuous")
	}
	header := codec.AppendUint([]byte(ckptMagic), ckptFormat)
	for _, tc := range []struct{ blob, want string }{
		{"{not json", "unreadable"},
		{`{"Now":3600000000,"NextCkptAt":7200000000,"Seed":67,"Networks":[]}`, "unreadable"},
		{string(codec.AppendUint([]byte(ckptMagic), ckptFormat-1)), "unreadable"},
		{ckptMagic, "has no clock"},
		{string(header), "has no clock"},
		{string(append(header, 0x80)), "has no clock"},
	} {
		store.ckpt = []byte(tc.blob)
		cfg.Obs = obs.NewRegistry()
		if _, err := Open(cfg, store); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Open over checkpoint %q: err = %v, want %q", tc.blob, err, tc.want)
		}
	}
}

// TestDirStoreCommitNeedsDurableRename: a checkpoint whose directory
// cannot be synced after the rename is a failed commit — counted in
// ckpt_failures, returned, and never journaled.
func TestDirStoreCommitNeedsDurableRename(t *testing.T) {
	store, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	c := mustOpen(t, testConfig(71), store)
	if err := c.AddFleet(testFleet(71, 2)); err != nil {
		t.Fatal(err)
	}
	defer func(orig func(string) error) { syncDir = orig }(syncDir)
	syncDir = func(string) error { return errors.New("injected directory sync failure") }
	if err := c.Checkpoint(); err == nil {
		t.Fatal("a commit whose directory sync failed was reported durable")
	}
	if f, n := c.met.ckptFailures.Value(), c.met.ckptCommits.Value(); f != 1 || n != 0 {
		t.Fatalf("ckpt_failures=%d ckpt_commits=%d, want 1 and 0", f, n)
	}
	raw, err := store.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	recs, _, _, err := decodeJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Op == opCkpt {
			t.Fatalf("journal record %d confirms a commit that was not durable", r.Seq)
		}
	}
}

// appendCkpt re-encodes a decoded checkpoint document the way
// checkpointBytes renders one.
func appendCkpt(st *ckptState) []byte {
	b := st.appendHead(nil, len(st.Networks))
	for i := range st.Networks {
		b = st.Networks[i].append(b)
	}
	return appendSched(b, st.Sched)
}

// chaosCkptBlobs returns the checkpoints a clean run of the
// chaosRestartConfig fleet commits: push retries, delayed reports and
// radar storms in flight.
func chaosCkptBlobs(tb testing.TB) [][]byte {
	tb.Helper()
	rec := &recordingStore{MemStore: NewMemStore(nil)}
	c, err := Open(chaosRestartConfig(), rec)
	if err != nil {
		tb.Fatal(err)
	}
	if err := c.AddFleet(testFleet(83, 8)); err != nil {
		tb.Fatal(err)
	}
	for _, target := range advanceTargets(3, 50*sim.Minute) {
		if err := c.RunTo(target); err != nil {
			tb.Fatal(err)
		}
	}
	return rec.blobs
}

// FuzzCheckpointDecode: any input either fails to decode or re-encodes to
// exactly its own bytes, and decoding never panics. The seeds are real
// checkpoints: a quarantined and a live network, and the chaos run's,
// which hold push retries, delayed reports, radar storms and a report
// corrupted to NaN in transit.
func FuzzCheckpointDecode(f *testing.F) {
	c, _, _ := ckptFixture(f)
	f.Add(c.CheckpointBytes())
	blobs := chaosCkptBlobs(f)
	for _, data := range blobs {
		f.Add(data)
	}
	kinds, late, retrying, nan := inFlight(f, blobs)
	if len(kinds) != 6 || late == 0 || retrying == 0 || nan == 0 {
		f.Fatalf("seeds hold event kinds %v, %d delayed reports (%d NaN), %d retries; want all six kinds, a NaN report and a retry",
			kinds, late, nan, retrying)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := readCkpt(data)
		if err != nil {
			return
		}
		if got := appendCkpt(&st); !bytes.Equal(got, data) {
			t.Fatalf("decoded blob re-encodes to different bytes:\n in %x\nout %x", data, got)
		}
	})
}

// ckptRenderAllocCeiling bounds the heap allocations of one checkpoint
// render of the fleet_durable shape at its horizon (16 live networks, 289
// APs, 6h15m). It is the measured count plus a tenth (95 on linux/amd64
// with Go 1.24, about six per network: the engine's queue and the
// planning service's two memo map copies, and one buffer for the blob;
// the encoding/json render of format 5 made 1,174), so no per-AP
// allocation comes back into Export or the encoding. A change that lowers the count should lower the
// ceiling with it.
const ckptRenderAllocCeiling = 105

// TestCheckpointRenderAllocs: a render allocates per network, not per AP.
func TestCheckpointRenderAllocs(t *testing.T) {
	c, _, _, _ := durableShape(t, 6*sim.Hour+15*sim.Minute)
	n := testing.AllocsPerRun(10, func() { c.CheckpointBytes() })
	t.Logf("%.0f allocations per render of %d networks", n, c.Len())
	if n > ckptRenderAllocCeiling {
		t.Fatalf("%.0f allocations per checkpoint render, ceiling %d", n, ckptRenderAllocCeiling)
	}
}

package fleetd

import (
	"bytes"
	"container/heap"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/spectrum"
)

// ckptFixture is a small built fleet two hours in, its last network
// quarantined: the state every perturbation below starts from.
func ckptFixture(t *testing.T) (*Controller, *netState, *netState) {
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
	for _, tc := range []struct{ blob, want string }{
		{"{not json", "unreadable"},
		{`{"t":"ckpt_meta","k":"fleet","at":0,"f":{"now":0}}` + "\n" + `{"t":"ckpt_net"}`, "unreadable"},
		{`{"Seed":67,"Networks":[]}`, "has no clock"},
		{`{"Now":null}`, "has no clock"},
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

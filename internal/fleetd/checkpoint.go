package fleetd

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/sim"
)

// Checkpoints. A checkpoint renders the controller's durable state as one
// JSON document (encoding/json over fixed structs, the journal's codec):
// the fleet clock, the next checkpoint instant, the seed, the config
// digest, one row per network in ascending ID order and the scheduler's
// pending entries in their total order. A network's row is its snapshot
// row (status) plus what no snapshot shows: whether it is built and, when
// it is live, its engine's exported position (sim.State: clock, counters,
// rng and the pending typed events) and its backend's (backend.State: the
// per-AP rows and channels, the rng, the quarantine table, the delayed
// reports in transit and the planning service's memos and counters).
// uint64s encode as exact integers and floats as their shortest
// round-tripping form, so the blob is a canonical byte string of the
// fleet's state: two controllers are equivalent iff their checkpoint
// bytes are equal, which is exactly the invariant the restart property
// test and the kill-chaos campaign pin.
//
// A committed checkpoint is a restart point: Open restores the controller
// from the newest blob a journaled ckpt record vouches for and replays
// only the records after it (recover.go). What can be rebuilt is not in
// the document — scenarios, planner-input templates, the Model's memo,
// RF traces — and restore renders the restored state once more, so a
// document that does not round-trip is refused rather than run.

// ckptFormat numbers the checkpoint encoding. The config digest folds it:
// a journal's ckpt records digest bytes of one encoding, so Open refuses a
// journal written under another.
const ckptFormat = 5

// ckptState is the checkpoint document; Now leads so ckptClock can read it.
type ckptState struct {
	Now, NextCkptAt sim.Time
	Seed            int64
	Config          uint64
	Networks        []ckptNet
	Sched           [][3]int64 // (at, id, level) in scheduler order
}

// ckptNet is one network's checkpoint row.
type ckptNet struct {
	NetworkStatus
	Built bool
	// Engine and Backend are the network's restart state: present only
	// while it is live (built and not quarantined).
	Engine  *sim.State     `json:",omitempty"`
	Backend *backend.State `json:",omitempty"`
}

// fnvBytes is FNV-1a over a byte slice (checkpoint content digests).
func fnvBytes(data []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range data {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// checkpointBytes renders the controller's current state as the
// canonical checkpoint blob. Callers must be in the serial control-loop
// context (no passes in flight).
func (c *Controller) checkpointBytes() []byte {
	st := ckptState{Now: c.now, NextCkptAt: c.nextCkptAt, Seed: c.cfg.Seed, Config: c.cfg.digest()}
	for _, ns := range c.nets() {
		row := ckptNet{
			NetworkStatus: status(ns),
			Built:         ns.build == nil,
		}
		if be := ns.live(); be != nil {
			eng, err := ns.engine.Export()
			if err != nil {
				panic(fmt.Sprintf("fleetd: checkpoint of network %d: %v", ns.id, err))
			}
			bst, err := be.Export()
			if err != nil {
				panic(fmt.Sprintf("fleetd: checkpoint of network %d: %v", ns.id, err))
			}
			row.Engine, row.Backend = &eng, &bst
		}
		st.Networks = append(st.Networks, row)
	}
	for _, e := range c.sched.entries() {
		st.Sched = append(st.Sched, [3]int64{int64(e.at), int64(e.id), int64(e.level)})
	}
	data, err := json.Marshal(&st)
	if err != nil {
		// Only a NaN or an infinity can fail here; keep that loud.
		panic(fmt.Sprintf("fleetd: checkpoint render: %v", err))
	}
	return data
}

// CheckpointBytes exposes the canonical state blob (tests compare it
// between a recovered controller and its uncrashed twin).
func (c *Controller) CheckpointBytes() []byte { return c.checkpointBytes() }

// ckptClock reads the commit clock of a stored checkpoint blob.
func ckptClock(data []byte) (sim.Time, error) {
	var h struct{ Now *sim.Time }
	if err := json.Unmarshal(data, &h); err != nil {
		return 0, fmt.Errorf("fleetd: stored checkpoint unreadable: %w", err)
	}
	if h.Now == nil {
		return 0, errors.New("fleetd: stored checkpoint has no clock")
	}
	return *h.Now, nil
}

// errCkptFailed marks a checkpoint commit the store refused (anything but
// ErrKilled). The periodic path counts and skips it; a forced commit
// returns it.
var errCkptFailed = errors.New("fleetd: checkpoint commit failed")

// checkpointAt runs the periodic checkpoint at one serial instant t (a
// tick boundary or an advance end). Whether an attempt happens is a
// function of the clock alone: the grid advances past t before anything
// else, in live and replay mode alike and whether or not the commit then
// lands. A failed attempt (injected or real IO) is counted and skipped —
// it writes no record, leaves the state bytes a commit would have left,
// and the next grid point tries again. During journal replay the attempt
// instead consumes its ckpt record, if the live run wrote one, and
// verifies the recomputed state against it.
func (c *Controller) checkpointAt(t sim.Time) error {
	if c.store == nil || c.cfg.CheckpointEvery <= 0 || t < c.nextCkptAt {
		return nil
	}
	for c.nextCkptAt <= t {
		c.nextCkptAt += c.cfg.CheckpointEvery
	}
	if c.replaying() {
		// No record here means the live attempt failed. A record from an
		// earlier clock means replay skipped a commit; verifyCkpt says so.
		if r, _ := c.replayHead(); r.Op == opCkpt && sim.Time(r.To) <= t {
			c.replayPop()
			return c.verifyCkpt(r)
		}
		return nil
	}
	if c.proc.FailCheckpoint(t) {
		c.met.ckptFailures.Inc()
		return nil
	}
	if err := c.commitCkpt(); !errors.Is(err, errCkptFailed) {
		return err
	}
	return nil
}

// commitCkpt renders the state bytes at the current clock, commits them
// through the store and journals the ckpt record. A refused commit is
// counted in ckpt_failures and returned wrapped in errCkptFailed; a store
// kill marks the controller dead.
func (c *Controller) commitCkpt() error {
	data := c.checkpointBytes()
	if err := c.store.CommitCheckpoint(data); err != nil {
		if errors.Is(err, ErrKilled) {
			c.dead = true
			return err
		}
		c.met.ckptFailures.Inc()
		return fmt.Errorf("%w: %w", errCkptFailed, err)
	}
	c.met.ckptCommits.Inc()
	return c.appendRecord(jrec{Op: opCkpt, To: int64(c.now), Digest: fnvBytes(data)})
}

// verifyCkpt re-applies a journaled commit during replay: the state bytes
// recomputed at its clock must carry the recorded digest.
func (c *Controller) verifyCkpt(r jrec) error {
	if at := sim.Time(r.To); at != c.now {
		return errReplayDiverged("checkpoint record for clock %v replayed at %v", at, c.now)
	}
	if fnvBytes(c.checkpointBytes()) != r.Digest {
		return errReplayDiverged("checkpoint digest mismatch at %v", c.now)
	}
	c.met.ckptCommits.Inc()
	return nil
}

// restore puts a controller whose networks are registered, and nothing
// else has happened to, where a checkpoint blob says. A built network is
// constructed afresh and its engine and backend import their exported
// state instead of starting; a quarantined one comes back frozen, built
// and with no control plane, since nothing reads one; an unbuilt one stays
// lazy. The restored state must render the blob again byte for byte.
func (c *Controller) restore(data []byte) error {
	var st ckptState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("fleetd: stored checkpoint unreadable: %w", err)
	}
	if st.Config != c.cfg.digest() {
		return errors.New("fleetd: stored checkpoint was written under another configuration")
	}
	if len(st.Networks) != c.Len() {
		return fmt.Errorf("fleetd: stored checkpoint holds %d networks, the journal registers %d", len(st.Networks), c.Len())
	}
	c.now, c.nextCkptAt = st.Now, st.NextCkptAt
	for _, row := range st.Networks {
		ns := c.get(row.ID)
		if ns == nil || ns.key != row.Key || ns.apCount != row.APs {
			return fmt.Errorf("fleetd: stored checkpoint row %s matches no registered network", row.Key)
		}
		ns.passes, ns.shed, ns.coalesced, ns.quarantined = row.Passes, row.Shed, row.Coalesced, row.Quarantined
		switch {
		case !row.Built:
		case row.Quarantined:
			ns.build = nil
		case row.Engine == nil || row.Backend == nil:
			return fmt.Errorf("fleetd: stored checkpoint row %s is live with no state", row.Key)
		default:
			ns.construct()
			if err := ns.engine.Import(*row.Engine); err != nil {
				return fmt.Errorf("fleetd: restore %s: %w", row.Key, err)
			}
			if err := ns.be.Import(*row.Backend); err != nil {
				return fmt.Errorf("fleetd: restore %s: %w", row.Key, err)
			}
		}
	}
	c.sched = scheduler{}
	for _, e := range st.Sched {
		if c.get(int(e[1])) == nil || e[2] < 0 || e[2] >= numLevels {
			return fmt.Errorf("fleetd: stored checkpoint schedules %v", e)
		}
		c.sched.push(passEntry{at: sim.Time(e[0]), id: int(e[1]), level: int(e[2])})
	}
	if !bytes.Equal(c.checkpointBytes(), data) {
		return errors.New("fleetd: restored state does not render the stored checkpoint")
	}
	return nil
}

// Checkpoint forces an immediate commit regardless of the periodic
// schedule — the graceful-shutdown path and an operator lever. Forced
// commits skip the injected failure model (they replay by their position
// in the journal, not by the schedule); a refused commit is returned.
func (c *Controller) Checkpoint() error {
	if c.store == nil {
		return nil
	}
	if c.dead {
		return ErrKilled
	}
	return c.commitCkpt()
}

// Close writes a final checkpoint and the clean-shutdown marker. A nil
// error means the journal ends in a verified durable state (the "clean
// exit" the fleetd binary reports with exit code 0).
func (c *Controller) Close() error {
	if c.store == nil {
		return nil
	}
	if err := c.Checkpoint(); err != nil {
		return err
	}
	return c.appendRecord(jrec{Op: opShutdown})
}

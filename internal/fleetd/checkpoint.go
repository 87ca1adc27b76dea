package fleetd

import (
	"bytes"
	"errors"
	"fmt"

	"repro/internal/backend"
	"repro/internal/codec"
	"repro/internal/sim"
)

// Checkpoints. A checkpoint renders the controller's durable state as one
// binary document in the restart-state encoding (package codec: integers
// as varints, floats as their 8 IEEE 754 bytes, bools as one byte,
// lengths and strings length-prefixed). It opens with a fixed header —
// the magic "FDCK", ckptFormat and the fleet clock — and then holds, in
// this order: the next checkpoint instant, the seed, the config digest,
// one row per network in ascending ID order and the scheduler's pending
// entries in their total order. A network's row is its snapshot row
// (status) plus what no snapshot shows: whether it is built and, behind a
// presence flag set while it is live, its engine's exported position
// (sim.State: clock, counters, rng and the pending typed events) and its
// backend's (backend.State: the per-AP rows and channels, the rng, the
// quarantine table, the delayed reports in transit and the planning
// service's memos and counters). Each state owner appends its own fields
// and reads them back. Floats are written as their bits, so NaN and the
// infinities a corrupted report carries round-trip and nothing is
// rounded: the blob is a canonical byte string of the fleet's state. Two
// controllers are equivalent iff their checkpoint bytes are equal, which
// is exactly the invariant the restart property test and the kill-chaos
// campaign pin.
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
const ckptFormat = 6

// ckptMagic opens every checkpoint blob.
const ckptMagic = "FDCK"

// ckptState is the checkpoint document as restore reads it. A render
// writes the same fields without holding them all (checkpointBytes): the
// head, then the rows one network at a time, then the schedule.
type ckptState struct {
	Now, NextCkptAt sim.Time
	Seed            int64
	Config          uint64
	Networks        []ckptNet
	Sched           []passEntry // in scheduler order
}

// ckptNet is one network's checkpoint row.
type ckptNet struct {
	NetworkStatus
	Built bool
	// Live marks a network built and not quarantined; only a live one
	// carries its restart state, Engine and Backend.
	Live    bool
	Engine  sim.State
	Backend backend.State
}

// appendHead appends the header and the fields before the rows, then
// the row count.
func (st *ckptState) appendHead(b []byte, rows int) []byte {
	b = append(b, ckptMagic...)
	b = codec.AppendUint(b, ckptFormat)
	b = codec.AppendInt(b, int64(st.Now))
	b = codec.AppendInt(b, int64(st.NextCkptAt))
	b = codec.AppendInt(b, st.Seed)
	b = codec.AppendUint(b, st.Config)
	return codec.AppendUint(b, uint64(rows))
}

// appendSched appends the scheduler's entries, the document's last field.
func appendSched(b []byte, sched []passEntry) []byte {
	b = codec.AppendUint(b, uint64(len(sched)))
	for _, e := range sched {
		b = codec.AppendInt(b, int64(e.at))
		b = codec.AppendInt(b, int64(e.id))
		b = codec.AppendInt(b, int64(e.level))
	}
	return b
}

func (n *ckptNet) append(b []byte) []byte {
	b = codec.AppendInt(b, int64(n.ID))
	b = codec.AppendString(b, n.Key)
	b = codec.AppendInt(b, int64(n.APs))
	b = codec.AppendFloat(b, n.LogNetP5)
	b = codec.AppendFloat(b, n.LogNetP24)
	b = codec.AppendBool(b, n.Converged)
	b = codec.AppendInt(b, int64(n.Switches))
	for _, v := range n.Passes {
		b = codec.AppendInt(b, int64(v))
	}
	for _, v := range n.Shed {
		b = codec.AppendInt(b, int64(v))
	}
	b = codec.AppendInt(b, int64(n.Coalesced))
	b = codec.AppendInt(b, int64(n.Degraded))
	b = codec.AppendBool(b, n.Quarantined)
	b = codec.AppendBool(b, n.Built)
	if b = codec.AppendBool(b, n.Live); n.Live {
		b = n.Engine.Append(b)
		b = n.Backend.Append(b)
	}
	return b
}

// openCkpt reads a blob's header and returns its clock and a reader at
// the fields after it.
func openCkpt(data []byte) (*codec.Reader, sim.Time, error) {
	rest, ok := bytes.CutPrefix(data, []byte(ckptMagic))
	if !ok {
		return nil, 0, errors.New("fleetd: stored checkpoint unreadable: not a checkpoint")
	}
	r := codec.NewReader(rest)
	if f := r.Uint(); r.Err() == nil && f != ckptFormat {
		return nil, 0, fmt.Errorf("fleetd: stored checkpoint unreadable: format %d, want %d", f, ckptFormat)
	}
	now := sim.Time(r.Int())
	if r.Err() != nil {
		return nil, 0, errors.New("fleetd: stored checkpoint has no clock")
	}
	return r, now, nil
}

// ckptClock reads the commit clock of a stored checkpoint blob.
func ckptClock(data []byte) (sim.Time, error) {
	_, now, err := openCkpt(data)
	return now, err
}

// readCkpt decodes a whole checkpoint blob.
func readCkpt(data []byte) (ckptState, error) {
	r, now, err := openCkpt(data)
	if err != nil {
		return ckptState{}, err
	}
	st := ckptState{Now: now, NextCkptAt: sim.Time(r.Int()), Seed: r.Int(), Config: r.Uint()}
	if n := r.Len(32); n > 0 { // a row takes at least 32 bytes
		st.Networks = make([]ckptNet, n)
	}
	for i := range st.Networks {
		st.Networks[i] = readCkptNet(r)
	}
	if n := r.Len(3); n > 0 {
		st.Sched = make([]passEntry, n)
	}
	for i := range st.Sched {
		st.Sched[i] = passEntry{at: sim.Time(r.Int()), id: int(r.Int()), level: int(r.Int())}
	}
	if err := r.Done(); err != nil {
		return ckptState{}, fmt.Errorf("fleetd: stored checkpoint unreadable: %w", err)
	}
	return st, nil
}

func readCkptNet(r *codec.Reader) ckptNet {
	var n ckptNet
	n.ID, n.Key, n.APs = int(r.Int()), r.String(), int(r.Int())
	n.LogNetP5, n.LogNetP24, n.Converged, n.Switches = r.Float(), r.Float(), r.Bool(), int(r.Int())
	for i := range n.Passes {
		n.Passes[i] = int(r.Int())
	}
	for i := range n.Shed {
		n.Shed[i] = int(r.Int())
	}
	n.Coalesced, n.Degraded, n.Quarantined = int(r.Int()), int(r.Int()), r.Bool()
	n.Built = r.Bool()
	if n.Live = r.Bool(); n.Live {
		n.Engine = sim.ReadState(r)
		n.Backend = backend.ReadState(r)
	}
	return n
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
	nets := c.nets()
	st := ckptState{Now: c.now, NextCkptAt: c.nextCkptAt, Seed: c.cfg.Seed, Config: c.cfg.digest()}
	// The last blob's length sizes the buffer: one allocation, not a
	// doubling series.
	b := st.appendHead(make([]byte, 0, c.ckptSize+c.ckptSize/8), len(nets))
	var row ckptNet // one row, its AP storage reused from network to network
	for _, ns := range nets {
		row.NetworkStatus, row.Built, row.Live = status(ns), ns.build == nil, false
		if be := ns.live(); be != nil {
			var err error
			if row.Engine, err = ns.engine.Export(); err == nil {
				err = be.Export(&row.Backend)
			}
			if err != nil {
				panic(fmt.Sprintf("fleetd: checkpoint of network %d: %v", ns.id, err))
			}
			row.Live = true
		}
		b = row.append(b)
	}
	b = appendSched(b, c.sched.entries())
	c.ckptSize = len(b)
	return b
}

// CheckpointBytes exposes the canonical state blob (tests compare it
// between a recovered controller and its uncrashed twin).
func (c *Controller) CheckpointBytes() []byte { return c.checkpointBytes() }

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
	st, err := readCkpt(data)
	if err != nil {
		return err
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
		case !row.Live:
			return fmt.Errorf("fleetd: stored checkpoint row %s is live with no state", row.Key)
		default:
			ns.construct()
			if err := ns.engine.Import(row.Engine); err != nil {
				return fmt.Errorf("fleetd: restore %s: %w", row.Key, err)
			}
			if err := ns.be.Import(row.Backend); err != nil {
				return fmt.Errorf("fleetd: restore %s: %w", row.Key, err)
			}
		}
	}
	c.sched = scheduler{}
	for _, e := range st.Sched {
		if c.get(e.id) == nil || e.level < 0 || e.level >= numLevels {
			return fmt.Errorf("fleetd: stored checkpoint schedules %+v", e)
		}
		c.sched.push(e)
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

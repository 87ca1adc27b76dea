package fleetd

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// Restart and recovery. Open is the durable entry point: on an empty
// store it starts a fresh journal; otherwise it restores the controller
// from its newest restart point and replays the journal records after it.
// A restart point is a stored checkpoint blob that a journaled ckpt record
// vouches for (same digest, and the restored clock must be the record's);
// the record's position says where
// in the journal the blob's state stands. The networks registered before
// it are read back from their add and addfleet records, with no pass
// running, and the blob restores everything else (checkpoint.go). A
// journal with no vouched checkpoint yet restarts from the empty state at
// t = 0, through the same loop: recovery time follows the journal tail,
// not the run's length.
//
// Replay is exact — seeds, scenarios, fault decisions, and pass schedules
// are all pure functions of journaled inputs and of the restored state —
// so the rebuilt controller's state bytes match an uncrashed twin's, which
// the replayed checkpoint records verify en route. A periodic checkpoint
// can fall inside an advance; restoring from one resumes that advance from
// the checkpoint's clock.
//
// The crash point needs no bookkeeping of its own: the final advance
// record was written ahead of its work, so replay simply re-executes the
// rest of the advance. The moment the record stream runs out, the
// controller flips from replay to live mode mid-run — everything past the
// last durable record is new execution, with real checkpoint commits and
// journal appends (and, under the chaos campaign, real kill points).
//
// Counters on the registry of a recovering controller count only the work
// recovery did: a restored network's passes run before the restart point
// are in its checkpoint row, not in fleetd.passes_i*.

// errReplayDiverged formats the hard failure every replay verification
// raises: the journal promises state the rebuilt controller did not
// reproduce.
func errReplayDiverged(format string, a ...any) error {
	return fmt.Errorf("fleetd: replay diverged: "+format, a...)
}

// replayState is the unconsumed suffix of the journal during recovery.
type replayState struct {
	recs []jrec
	p    int
}

// replaying reports whether journal records remain to be consumed. The
// moment it turns false, every append/commit path operates live again.
func (c *Controller) replaying() bool {
	return c.replay != nil && c.replay.p < len(c.replay.recs)
}

// replayHead peeks the next unconsumed record.
func (c *Controller) replayHead() (jrec, bool) {
	if !c.replaying() {
		return jrec{}, false
	}
	return c.replay.recs[c.replay.p], true
}

func (c *Controller) replayPop() { c.replay.p++ }

// Open attaches a Controller to a durable store. An empty journal starts
// a fresh one (writing the config record); otherwise the pre-crash
// controller is restored from its newest restart point and the journal
// after it is replayed. A torn final record
// (crash mid-append) is dropped and truncated away. The returned error
// is ErrKilled when the store's fault model kills the process during the
// live continuation — re-Open after Revive to continue recovery.
func Open(cfg Config, store Store) (*Controller, error) {
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = sim.Hour
	}
	cfg = cfg.withDefaults()
	c := New(cfg)
	c.store = store

	raw, err := store.JournalBytes()
	if err != nil {
		return nil, err
	}
	recs, cleanLen, torn, err := decodeJournal(raw)
	if err != nil {
		return nil, err
	}
	// The config record is checked before a torn tail is truncated, so a
	// journal this configuration refuses is left as it was: a final record
	// of an older format can read as torn, because a retired field no
	// longer decodes into jrec and its CRC fails.
	if len(recs) > 0 {
		if recs[0].Op != opConfig {
			return nil, fmt.Errorf("fleetd: journal does not start with a config record (got %q)", recs[0].Op)
		}
		if recs[0].Digest != cfg.digest() {
			return nil, fmt.Errorf("fleetd: journal config digest %#x does not match configuration %#x", recs[0].Digest, cfg.digest())
		}
	}
	if torn {
		c.met.tornDropped.Inc()
		if err := store.Truncate(int64(cleanLen)); err != nil {
			return nil, err
		}
	}
	if len(recs) == 0 {
		if err := c.appendRecord(jrec{Op: opConfig, Digest: cfg.digest()}); err != nil {
			return nil, err
		}
		return c, nil
	}

	point, blob, err := restartPoint(store, recs)
	if err != nil {
		return nil, err
	}
	c.seq = len(recs)
	c.replay = &replayState{recs: recs, p: 1}
	c.met.recoveries.Inc()
	if point > 0 {
		for _, r := range recs[1:point] {
			switch r.Op {
			case opAddFleet, opAdd:
				if err := c.replayAdd(r); err != nil {
					return nil, err
				}
			case opAdvance, opCkpt, opShutdown:
			default:
				return nil, errRetired(r)
			}
		}
		if err := c.restore(blob); err != nil {
			return nil, err
		}
		if at := sim.Time(recs[point].To); c.now != at {
			return nil, errReplayDiverged("checkpoint record for clock %v restored at %v", at, c.now)
		}
		c.replay.p = point + 1
		if to, ok := openAdvance(recs[:point]); ok {
			if err := c.runTo(to); err != nil {
				return nil, err
			}
		}
	}
	for {
		r, ok := c.replayHead()
		if !ok {
			break
		}
		c.replayPop()
		switch r.Op {
		case opAddFleet, opAdd:
			if err := c.replayAdd(r); err != nil {
				return nil, err
			}
		case opAdvance:
			if err := c.runTo(sim.Time(r.To)); err != nil {
				return nil, err
			}
		case opCkpt:
			// A forced commit (Checkpoint/Close) at its stream position.
			if err := c.verifyCkpt(r); err != nil {
				return nil, err
			}
		case opShutdown:
		default:
			return nil, errRetired(r)
		}
	}
	c.replay = nil
	return c, nil
}

// errRetired refuses a record Open has no mechanism for, including the
// retired demote/ckptfail/cadence/remove records: replaying one without
// its mechanism would rebuild different state.
func errRetired(r jrec) error {
	return fmt.Errorf("fleetd: unexpected journal record %q at seq %d", r.Op, r.Seq)
}

// replayAdd registers the networks of an add or addfleet record.
func (c *Controller) replayAdd(r jrec) error {
	var f *fleet.Fleet
	switch {
	case r.Op == opAddFleet && r.Fleet != nil:
		f = fleet.Generate(*r.Fleet)
	case r.Op == opAdd && r.Net != nil:
		f = &fleet.Fleet{Networks: []*fleet.Network{r.Net}}
	default:
		return fmt.Errorf("fleetd: journal %s record %d is empty", r.Op, r.Seq)
	}
	if err := c.refuseRegistered(f.Networks); err != nil {
		return fmt.Errorf("fleetd: journal %s record %d: %w", r.Op, r.Seq, err)
	}
	c.addFleet(f)
	return nil
}

// restartPoint finds the newest restart point: the index in recs of the
// last ckpt record whose digest is a stored blob's, and that blob. It is 0
// and nil when no record vouches for either stored blob. A stored blob no
// record vouches for is the commit whose record never landed; one whose
// clock cannot even be read is an error, not a blob to pass over.
func restartPoint(store Store, recs []jrec) (int, []byte, error) {
	vouched := map[uint64]int{}
	for i, r := range recs {
		if r.Op == opCkpt {
			vouched[r.Digest] = i
		}
	}
	point, blob := 0, []byte(nil)
	for _, read := range []func() ([]byte, bool, error){store.Checkpoint, store.PrevCheckpoint} {
		data, ok, err := read()
		if err != nil {
			return 0, nil, err
		}
		if !ok {
			continue
		}
		i, ok := vouched[fnvBytes(data)]
		if !ok {
			if _, err := ckptClock(data); err != nil {
				return 0, nil, err
			}
			continue
		}
		if i > point {
			point, blob = i, data
		}
	}
	return point, blob, nil
}

// openAdvance reports the advance a restart point at the end of prefix
// stands inside: the last advance record, when only ckpt records follow
// it. A restart point after any other record stands between advances.
func openAdvance(prefix []jrec) (sim.Time, bool) {
	for i := len(prefix) - 1; i > 0; i-- {
		switch prefix[i].Op {
		case opCkpt:
			continue
		case opAdvance:
			return sim.Time(prefix[i].To), true
		}
		break
	}
	return 0, false
}

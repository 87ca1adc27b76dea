package fleetd

import (
	"fmt"

	"repro/internal/fleet"
	"repro/internal/sim"
)

// Restart and recovery. Open is the durable entry point: on an empty
// store it starts a fresh journal; otherwise it rebuilds the controller
// by replaying every journaled intent from the beginning. Replay is
// exact — seeds, scenarios, fault decisions, and pass schedules are all
// pure functions of journaled inputs — so the rebuilt controller's state
// bytes match an uncrashed twin's, which the replayed checkpoint records
// verify en route.
//
// The crash point needs no bookkeeping of its own: the final advance
// record was written ahead of its work, so replay simply re-executes the
// whole advance. The moment the record stream runs out, the controller
// flips from replay to live mode mid-run — everything past the last
// durable record is new execution, with real checkpoint commits and
// journal appends (and, under the chaos campaign, real kill points).

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
// a fresh one (writing the config record); otherwise the journal is
// replayed to reconstruct the pre-crash controller. A torn final record
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

	if data, ok, err := store.Checkpoint(); err != nil {
		return nil, err
	} else if ok {
		at, err := ckptClock(data)
		if err != nil {
			return nil, err
		}
		c.storedCkpt, c.storedCkptAt = data, at
	}

	c.seq = len(recs)
	c.replay = &replayState{recs: recs, p: 1}
	c.met.recoveries.Inc()
	for {
		r, ok := c.replayHead()
		if !ok {
			break
		}
		switch r.Op {
		case opAddFleet:
			c.replayPop()
			if r.Fleet == nil {
				return nil, fmt.Errorf("fleetd: journal addfleet record %d has no options", r.Seq)
			}
			f := fleet.Generate(*r.Fleet)
			if err := c.refuseRegistered(f.Networks); err != nil {
				return nil, fmt.Errorf("fleetd: journal addfleet record %d: %w", r.Seq, err)
			}
			c.addFleet(f)
		case opAdd:
			c.replayPop()
			if r.Net == nil {
				return nil, fmt.Errorf("fleetd: journal add record %d has no network", r.Seq)
			}
			if err := c.refuseRegistered([]*fleet.Network{r.Net}); err != nil {
				return nil, fmt.Errorf("fleetd: journal add record %d: %w", r.Seq, err)
			}
			c.add(r.Net)
		case opAdvance:
			c.replayPop()
			if err := c.runTo(sim.Time(r.To)); err != nil {
				return nil, err
			}
		case opCkpt:
			// A forced commit (Checkpoint/Close) at its stream position.
			c.replayPop()
			if err := c.verifyCkpt(r); err != nil {
				return nil, err
			}
		case opShutdown:
			c.replayPop()
		default:
			// Includes the retired demote/ckptfail/cadence/remove records:
			// replaying one without its mechanism would rebuild different
			// state.
			return nil, fmt.Errorf("fleetd: unexpected journal record %q at seq %d", r.Op, r.Seq)
		}
	}
	c.replay = nil
	return c, nil
}

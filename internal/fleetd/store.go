package fleetd

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/faults"
)

// Durable storage for the controller's intent journal and checkpoint.
//
// The journal is append-only: one record per line, each synced before the
// work it describes executes (write-ahead). A checkpoint is a blob
// committed atomically (write-to-temp, sync, rename), so a reader never
// sees a torn one. A commit keeps the blob it replaces as the previous
// checkpoint: a crash between a commit and the journal record that vouches
// for it leaves the newest blob unvouched, and recovery restarts from the
// previous one, whose record did land. The journal's tail, by contrast, CAN tear — a crash mid-append
// leaves a prefix of the final record — which is why the decoder drops a
// malformed final record and Open truncates the file back to the clean
// prefix before appending anything new.

// ErrKilled is returned by a Store whose process "died": every subsequent
// durable write fails with it. The in-memory store uses it to simulate
// SIGKILL at seeded write instants; a Controller that sees it abandons
// the run immediately (the next Open replays the journal and continues).
var ErrKilled = errors.New("fleetd: process killed")

// Store is the durability interface the controller writes through.
// Reads (JournalBytes, Checkpoint) are recovery-time operations; writes
// (AppendJournal, CommitCheckpoint) are the durable points a crash can
// land on.
type Store interface {
	// AppendJournal durably appends one encoded record (no trailing
	// newline; the store adds framing).
	AppendJournal(line []byte) error
	// JournalBytes returns the journal's full current contents.
	JournalBytes() ([]byte, error)
	// Truncate discards journal bytes past n — the torn-tail repair.
	Truncate(n int64) error
	// CommitCheckpoint atomically replaces the checkpoint blob, keeping
	// the blob it replaces as the previous one.
	CommitCheckpoint(data []byte) error
	// Checkpoint returns the current checkpoint blob, if one exists.
	Checkpoint() ([]byte, bool, error)
	// PrevCheckpoint returns the blob the current one replaced, if any.
	PrevCheckpoint() ([]byte, bool, error)
}

// DirStore is the on-disk store: <dir>/journal.jsonl plus
// <dir>/checkpoint and <dir>/checkpoint.prev, with fsync on every journal
// append and a write-sync-rename cycle per checkpoint commit.
type DirStore struct {
	dir string
	jf  *os.File
}

// NewDirStore opens (creating if needed) a durability directory.
func NewDirStore(dir string) (*DirStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleetd: store dir: %w", err)
	}
	jf, err := os.OpenFile(filepath.Join(dir, "journal.jsonl"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("fleetd: open journal: %w", err)
	}
	return &DirStore{dir: dir, jf: jf}, nil
}

// Dir returns the store's directory.
func (s *DirStore) Dir() string { return s.dir }

// Close releases the journal handle (the store is unusable afterwards).
func (s *DirStore) Close() error { return s.jf.Close() }

func (s *DirStore) AppendJournal(line []byte) error {
	buf := make([]byte, 0, len(line)+1)
	buf = append(buf, line...)
	buf = append(buf, '\n')
	if _, err := s.jf.Write(buf); err != nil {
		return fmt.Errorf("fleetd: journal append: %w", err)
	}
	if err := s.jf.Sync(); err != nil {
		return fmt.Errorf("fleetd: journal sync: %w", err)
	}
	return nil
}

func (s *DirStore) JournalBytes() ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, "journal.jsonl"))
	if err != nil {
		return nil, fmt.Errorf("fleetd: read journal: %w", err)
	}
	return data, nil
}

func (s *DirStore) Truncate(n int64) error {
	if err := s.jf.Truncate(n); err != nil {
		return fmt.Errorf("fleetd: journal truncate: %w", err)
	}
	// The handle is O_APPEND, so the next write lands at the new end.
	return s.jf.Sync()
}

func (s *DirStore) CommitCheckpoint(data []byte) error {
	tmp := filepath.Join(s.dir, "checkpoint.tmp")
	final := filepath.Join(s.dir, "checkpoint")
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("fleetd: checkpoint tmp: %w", err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("fleetd: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("fleetd: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("fleetd: checkpoint close: %w", err)
	}
	// A crash between the two renames leaves only the previous blob,
	// which is the one recovery would restart from anyway.
	if err := os.Rename(final, final+".prev"); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("fleetd: checkpoint rotate: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("fleetd: checkpoint rename: %w", err)
	}
	// Sync the directory so the rename itself is durable; a commit whose
	// rename may not survive a crash is a failed commit.
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("fleetd: checkpoint dir sync: %w", err)
	}
	return nil
}

// syncDir opens and fsyncs a directory. It is a variable so a test can
// make the sync fail, which no file mode does for root.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (s *DirStore) Checkpoint() ([]byte, bool, error) { return s.readBlob("checkpoint") }

func (s *DirStore) PrevCheckpoint() ([]byte, bool, error) { return s.readBlob("checkpoint.prev") }

func (s *DirStore) readBlob(name string) ([]byte, bool, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("fleetd: read checkpoint: %w", err)
	}
	return data, true, nil
}

// MemStore is the in-memory store the kill-chaos campaign drives. It
// models SIGKILL faithfully at the durability layer: a faults.ProcProfile
// dooms each process instance to die immediately after a seeded durable
// write (the write itself lands — or tears, for journal appends under
// TornTail), after which every operation fails with ErrKilled until
// Revive starts the next instance. Any in-run kill instant is equivalent
// to a durable-write boundary because nothing else the controller does
// touches the store.
type MemStore struct {
	inj      *faults.ProcInjector
	instance int
	writes   int
	killAt   int // durable-write index this instance dies on; -1 = immortal
	dead     bool
	kills    int

	journal    bytes.Buffer
	ckpt, prev []byte
}

// NewMemStore builds an in-memory store; prof may be nil (no kills).
func NewMemStore(prof *faults.ProcProfile) *MemStore {
	s := &MemStore{inj: faults.NewProc(prof)}
	s.killAt = s.inj.KillAfterWrites(0)
	return s
}

// Dead reports whether the current process instance has been killed.
func (s *MemStore) Dead() bool { return s.dead }

// Kills reports how many kills have fired so far.
func (s *MemStore) Kills() int { return s.kills }

// Revive starts the next process instance: the store works again, with a
// fresh seeded kill point. The campaign calls it before each re-Open.
func (s *MemStore) Revive() {
	s.dead = false
	s.instance++
	s.writes = 0
	s.killAt = s.inj.KillAfterWrites(s.instance)
}

// kill marks the instance dead; returns the error every caller gets.
func (s *MemStore) kill() error {
	s.dead = true
	s.kills++
	return ErrKilled
}

func (s *MemStore) AppendJournal(line []byte) error {
	if s.dead {
		return ErrKilled
	}
	s.writes++
	if s.writes == s.killAt {
		if frac, torn := s.inj.TornTailFrac(s.instance); torn {
			// The crash lands mid-write: a prefix of the record's bytes
			// reach the disk, unterminated.
			n := int(frac * float64(len(line)))
			if n >= len(line) {
				n = len(line) - 1
			}
			if n > 0 {
				s.journal.Write(line[:n])
			}
			return s.kill()
		}
		s.journal.Write(line)
		s.journal.WriteByte('\n')
		return s.kill()
	}
	s.journal.Write(line)
	s.journal.WriteByte('\n')
	return nil
}

func (s *MemStore) JournalBytes() ([]byte, error) {
	return append([]byte(nil), s.journal.Bytes()...), nil
}

func (s *MemStore) Truncate(n int64) error {
	s.journal.Truncate(int(n))
	return nil
}

func (s *MemStore) CommitCheckpoint(data []byte) error {
	if s.dead {
		return ErrKilled
	}
	s.writes++
	s.prev, s.ckpt = s.ckpt, append([]byte(nil), data...)
	if s.writes == s.killAt {
		// The rename happened, then the process died: the commit is
		// durable but its journal confirmation never lands.
		return s.kill()
	}
	return nil
}

func (s *MemStore) Checkpoint() ([]byte, bool, error) { return blob(s.ckpt) }

func (s *MemStore) PrevCheckpoint() ([]byte, bool, error) { return blob(s.prev) }

func blob(b []byte) ([]byte, bool, error) {
	if b == nil {
		return nil, false, nil
	}
	return append([]byte(nil), b...), true, nil
}

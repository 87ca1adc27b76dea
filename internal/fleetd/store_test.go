package fleetd

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/faults"
)

func TestDirStoreRoundTrip(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	if _, ok, err := st.Checkpoint(); err != nil || ok {
		t.Fatalf("fresh store checkpoint ok=%v err=%v, want absent", ok, err)
	}
	for i, line := range []string{`{"seq":1}`, `{"seq":2}`} {
		if err := st.AppendJournal([]byte(line)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	data, err := st.JournalBytes()
	if err != nil {
		t.Fatal(err)
	}
	want := "{\"seq\":1}\n{\"seq\":2}\n"
	if string(data) != want {
		t.Fatalf("journal = %q, want %q", data, want)
	}

	// Torn-tail repair: truncate to the first record, then append — the
	// new record must land immediately after the clean prefix.
	if err := st.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if err := st.AppendJournal([]byte(`{"seq":2,"v":1}`)); err != nil {
		t.Fatal(err)
	}
	data, _ = st.JournalBytes()
	if string(data) != "{\"seq\":1}\n{\"seq\":2,\"v\":1}\n" {
		t.Fatalf("post-truncate journal = %q", data)
	}

	if err := st.CommitCheckpoint([]byte("blob-1")); err != nil {
		t.Fatal(err)
	}
	if err := st.CommitCheckpoint([]byte("blob-2")); err != nil {
		t.Fatal(err)
	}
	blob, ok, err := st.Checkpoint()
	if err != nil || !ok || string(blob) != "blob-2" {
		t.Fatalf("checkpoint = %q ok=%v err=%v, want blob-2", blob, ok, err)
	}
	blob, ok, err = st.PrevCheckpoint()
	if err != nil || !ok || string(blob) != "blob-1" {
		t.Fatalf("previous checkpoint = %q ok=%v err=%v, want blob-1", blob, ok, err)
	}
}

func TestMemStoreKillsAndRevives(t *testing.T) {
	prof := &faults.ProcProfile{Seed: 11, Kills: 3, KillSpan: 4}
	st := NewMemStore(prof)

	line := []byte(`{"seq":1,"op":"x","crc":0}`)
	kills := 0
	writes := 0
	for kills < 3 {
		err := st.AppendJournal(line)
		writes++
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrKilled) {
			t.Fatalf("write %d: %v", writes, err)
		}
		kills++
		if !st.Dead() {
			t.Fatal("store not dead after kill")
		}
		// Every operation fails until revival.
		if err := st.AppendJournal(line); !errors.Is(err, ErrKilled) {
			t.Fatalf("dead store append err = %v, want ErrKilled", err)
		}
		if err := st.CommitCheckpoint([]byte("b")); !errors.Is(err, ErrKilled) {
			t.Fatalf("dead store commit err = %v, want ErrKilled", err)
		}
		st.Revive()
		if st.Dead() {
			t.Fatal("store still dead after Revive")
		}
	}
	if st.Kills() != 3 {
		t.Fatalf("kills = %d, want 3", st.Kills())
	}
	// Instances past Kills are immortal.
	for i := 0; i < 100; i++ {
		if err := st.AppendJournal(line); err != nil {
			t.Fatalf("immortal instance write %d: %v", i, err)
		}
	}
}

func TestMemStoreTornTailLeavesPrefix(t *testing.T) {
	// With TornTail=1 every kill tears; find a seed/instance whose first
	// kill lands on a journal append and verify a strict prefix landed.
	for seed := int64(0); seed < 64; seed++ {
		st := NewMemStore(&faults.ProcProfile{Seed: seed, Kills: 1, KillSpan: 3, TornTail: 1})
		line := []byte(`{"seq":1,"op":"advance","to":12345,"crc":99}`)
		var before []byte
		for {
			before, _ = st.JournalBytes()
			if err := st.AppendJournal(line); err != nil {
				break
			}
		}
		after, _ := st.JournalBytes()
		tail := after[len(before):]
		if len(tail) >= len(line) {
			t.Fatalf("seed %d: torn write landed %d bytes of a %d-byte record", seed, len(tail), len(line))
		}
		if !bytes.HasPrefix(line, tail) {
			t.Fatalf("seed %d: torn tail %q is not a prefix of the record", seed, tail)
		}
		return // one torn seed is enough
	}
	t.Fatal("no seed in range produced a torn kill")
}

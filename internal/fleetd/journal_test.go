package fleetd

import (
	"bytes"
	"testing"

	"repro/internal/fleet"
)

func mustEncode(t *testing.T, r jrec) []byte {
	t.Helper()
	line, err := encodeRecord(r)
	if err != nil {
		t.Fatalf("encode %+v: %v", r, err)
	}
	return line
}

// journalBytes assembles a journal from records, stamping sequence
// numbers and newline framing the way appendRecord + a store would.
func journalBytes(t *testing.T, recs ...jrec) []byte {
	t.Helper()
	var buf bytes.Buffer
	for i, r := range recs {
		r.Seq = i + 1
		buf.Write(mustEncode(t, r))
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

func sampleRecords() []jrec {
	opt := fleet.Options{Networks: 12, Seed: 7, MaxAPs: 5}
	net := &fleet.Network{ID: 3}
	return []jrec{
		{Op: opConfig, Digest: 0xdeadbeefcafe},
		{Op: opAddFleet, Fleet: &opt},
		{Op: opAdd, Net: net},
		{Op: opAdvance, To: 900_000_000},
		{Op: opCkpt, To: 1_800_000_000, Digest: ^uint64(0)},
		{Op: "remove", ID: 3}, // retired: decodes, Open refuses it
		{Op: opShutdown},
	}
}

func TestJournalRoundTrip(t *testing.T) {
	data := journalBytes(t, sampleRecords()...)
	recs, cleanLen, torn, err := decodeJournal(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if torn {
		t.Fatal("clean journal reported torn")
	}
	if cleanLen != len(data) {
		t.Fatalf("cleanLen = %d, want %d", cleanLen, len(data))
	}
	want := sampleRecords()
	if len(recs) != len(want) {
		t.Fatalf("decoded %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		w := want[i]
		if r.Seq != i+1 || r.Op != w.Op || r.To != w.To || r.ID != w.ID || r.Digest != w.Digest {
			t.Fatalf("record %d = %+v, want op=%s to=%d id=%d digest=%#x", i, r, w.Op, w.To, w.ID, w.Digest)
		}
	}
	if recs[1].Fleet == nil || recs[1].Fleet.Networks != 12 || recs[1].Fleet.MaxAPs != 5 {
		t.Fatalf("addfleet options did not round-trip: %+v", recs[1].Fleet)
	}
	if recs[2].Net == nil || recs[2].Net.ID != 3 {
		t.Fatalf("add record did not round-trip: net=%+v", recs[2].Net)
	}
}

func TestJournalTornFinalRecordDropped(t *testing.T) {
	head := journalBytes(t, sampleRecords()[:3]...)
	last := mustEncode(t, jrec{Seq: 4, Op: opAdvance, To: 42})

	// Every proper prefix of the final line — with or without the newline
	// missing entirely — must decode as torn with the clean prefix intact.
	for cut := 1; cut < len(last); cut++ {
		data := append(append([]byte(nil), head...), last[:cut]...)
		recs, cleanLen, torn, err := decodeJournal(data)
		if err != nil {
			t.Fatalf("cut=%d: decode: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut=%d: torn prefix not detected", cut)
		}
		if cleanLen != len(head) || len(recs) != 3 {
			t.Fatalf("cut=%d: cleanLen=%d recs=%d, want %d/3", cut, cleanLen, len(recs), len(head))
		}
	}
}

func TestJournalUnterminatedFinalRecordIsTorn(t *testing.T) {
	// A complete, CRC-valid final record that is missing only its newline
	// still counts as torn: the append never finished.
	head := journalBytes(t, sampleRecords()[:2]...)
	data := append(append([]byte(nil), head...), mustEncode(t, jrec{Seq: 3, Op: opAdvance, To: 42})...)
	recs, cleanLen, torn, err := decodeJournal(data)
	if err != nil || !torn {
		t.Fatalf("torn=%v err=%v, want torn final record", torn, err)
	}
	if cleanLen != len(head) || len(recs) != 2 {
		t.Fatalf("cleanLen=%d recs=%d, want %d/2", cleanLen, len(recs), len(head))
	}
}

func TestJournalMidCorruptionIsHardError(t *testing.T) {
	data := journalBytes(t, sampleRecords()...)
	// Flip one byte inside the second record's line.
	n := bytes.IndexByte(data, '\n')
	data[n+5] ^= 0x40
	if _, _, _, err := decodeJournal(data); err == nil {
		t.Fatal("mid-journal corruption decoded without error")
	}
}

func TestJournalCRCMismatchAtTailDropped(t *testing.T) {
	recs := sampleRecords()[:3]
	data := journalBytes(t, recs...)
	// Corrupt a byte of the final record but keep it newline-terminated
	// and syntactically JSON: the CRC rejects it, the tail drops.
	i := bytes.LastIndex(data[:len(data)-1], []byte(`"op"`))
	data[i+8] ^= 0x01
	got, cleanLen, torn, err := decodeJournal(data)
	if err != nil || !torn {
		t.Fatalf("torn=%v err=%v, want CRC-bad tail dropped", torn, err)
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d records, want 2", len(got))
	}
	if cleanLen >= len(data) {
		t.Fatalf("cleanLen=%d not shrunk below %d", cleanLen, len(data))
	}
}

func TestJournalSeqGapRejected(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(mustEncode(t, jrec{Seq: 1, Op: opConfig}))
	buf.WriteByte('\n')
	buf.Write(mustEncode(t, jrec{Seq: 3, Op: opAdvance, To: 1}))
	buf.WriteByte('\n')
	buf.Write(mustEncode(t, jrec{Seq: 4, Op: opAdvance, To: 2}))
	buf.WriteByte('\n')
	if _, _, _, err := decodeJournal(buf.Bytes()); err == nil {
		t.Fatal("sequence gap decoded without error")
	}
}

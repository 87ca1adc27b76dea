package fleetd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"repro/internal/fleet"
)

// The intent journal. Every externally-visible controller mutation is
// appended (and synced) as one self-checking JSON record BEFORE the work
// it describes executes, so a crash at any instant loses at most work the
// journal already promises to redo. Because every per-network control
// plane is a pure function of (config, network set, clock) — seeds are
// content-derived, fault decisions are positional hashes — replaying the
// journal reconstructs the exact pre-crash state, from the beginning or
// from any checkpoint a ckpt record vouches for (recover.go): determinism
// IS the recovery mechanism, and checkpoints are where it may start.
//
// Record ops:
//
//	config    digest of the result-affecting configuration; always seq 1.
//	addfleet  a generative fleet registration (fleet.Options — replay
//	          re-runs fleet.Generate, so 10k networks cost one record).
//	add       one hand-built network, inlined (fleet.Network JSON).
//	advance   RunTo target clock, written ahead of the run. Replaying an
//	          advance re-executes every pass it covered (from a restart
//	          point inside it, every pass after that point).
//	ckpt      a checkpoint committed at clock To with the given content
//	          digest, appended after the atomic rename: it vouches for the
//	          blob as a restart point. A failed attempt writes nothing.
//	shutdown  clean shutdown marker (Close, after a final checkpoint).
//
// Retired ops: journals from before degraded mode was removed may hold
// demote and ckptfail records, journals from before per-network cadences
// were removed may hold cadence records, and journals from before network
// removal was dropped may hold remove records; Open refuses all four
// rather than replay them.
//
// Each record carries its 1-based sequence number and a CRC32 over its
// own encoding with the CRC field zeroed. The decoder drops a torn or
// CRC-bad FINAL record (the crash-mid-append case, which Open then
// truncates away); anything malformed earlier is hard corruption.
const (
	opConfig   = "config"
	opAddFleet = "addfleet"
	opAdd      = "add"
	opAdvance  = "advance"
	opCkpt     = "ckpt"
	opShutdown = "shutdown"
)

// jrec is one journal record. CRC must stay the last field so that any
// torn prefix of the line is guaranteed to be invalid JSON.
type jrec struct {
	Seq int    `json:"seq"`
	Op  string `json:"op"`
	To  int64  `json:"to,omitempty"` // clock, µs
	// ID exists for the retired remove record: without it such a record
	// fails its CRC check, and as the final record would be dropped as a
	// torn tail instead of refused.
	ID     int            `json:"id,omitempty"`
	Fleet  *fleet.Options `json:"fleet,omitempty"`
	Net    *fleet.Network `json:"net,omitempty"`
	Digest uint64         `json:"digest,omitempty"`
	CRC    uint32         `json:"crc"`
}

// encodeRecord renders a record as its journal line (no trailing
// newline), stamping the CRC.
func encodeRecord(r jrec) ([]byte, error) {
	r.CRC = 0
	base, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("fleetd: encode journal record: %w", err)
	}
	r.CRC = crc32.ChecksumIEEE(base)
	line, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("fleetd: encode journal record: %w", err)
	}
	return line, nil
}

// decodeJournal parses the journal. It returns the intact records, the
// byte length of the clean prefix (what the file should be truncated to
// if torn), and whether a torn final record was dropped. A malformed or
// out-of-sequence record anywhere but the tail is hard corruption.
func decodeJournal(data []byte) (recs []jrec, cleanLen int, torn bool, err error) {
	off := 0
	for off < len(data) {
		nl := bytes.IndexByte(data[off:], '\n')
		if nl < 0 {
			// Unterminated final line: the append never completed. Torn
			// even if the prefix happens to parse.
			return recs, off, true, nil
		}
		line := data[off : off+nl]
		atTail := off+nl+1 == len(data)
		var r jrec
		bad := ""
		if uerr := json.Unmarshal(line, &r); uerr != nil {
			bad = uerr.Error()
		} else {
			chk := r
			chk.CRC = 0
			base, merr := json.Marshal(&chk)
			if merr != nil || crc32.ChecksumIEEE(base) != r.CRC {
				bad = "crc mismatch"
			}
		}
		if bad != "" {
			if atTail {
				// Tail damage: drop the final record, keep the clean prefix.
				return recs, off, true, nil
			}
			return nil, 0, false, fmt.Errorf("fleetd: journal record %d corrupt: %s", len(recs)+1, bad)
		}
		if r.Seq != len(recs)+1 {
			return nil, 0, false, fmt.Errorf("fleetd: journal record %d has seq %d", len(recs)+1, r.Seq)
		}
		recs = append(recs, r)
		off += nl + 1
		cleanLen = off
	}
	return recs, cleanLen, false, nil
}

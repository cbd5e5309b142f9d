package wal

import (
	"fmt"
	"os"

	"repro/internal/record"
	"repro/internal/txn"
)

// decodeCommit parses a commit frame payload.
func decodeCommit(payload []byte) (lsn uint64, rec txn.CommitRecord, err error) {
	d := record.NewDecoder(payload)
	if typ := d.Byte(); typ != frameCommit {
		return 0, rec, fmt.Errorf("wal: frame type %d, want commit", typ)
	}
	lsn = d.Uvarint()
	rec.TxnID = d.Uvarint()
	rec.Time = d.Time()
	rec.Versions = d.Versions()
	if d.Remaining() > 0 { // index writes, each at least 6 bytes
		for range d.Count(6) {
			rec.Index = append(rec.Index, txn.IndexWrite{Index: string(d.Blob()), Version: d.Version()})
		}
	}
	if err := d.Err(); err != nil {
		return 0, rec, fmt.Errorf("wal: commit frame: %w", err)
	}
	if d.Remaining() != 0 {
		return 0, rec, fmt.Errorf("wal: commit frame: %d trailing bytes", d.Remaining())
	}
	return lsn, rec, nil
}

// ReplayFile replays one segment: fn is called, in log order, for every
// intact commit record with LSN strictly greater than afterLSN. It
// returns the LSN of the last intact frame (0 if none), and clean=false
// when the segment ends in a torn tail — legal for the segment a crash
// interrupted, and for an old segment whose tail was torn by an earlier
// crash (the records after the tear live in the next segment).
func ReplayFile(path string, afterLSN uint64, fn func(lsn uint64, rec txn.CommitRecord) error) (lastLSN uint64, clean bool, err error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, false, err
	}
	clean, err = record.WalkFrames(buf, func(payload []byte) error {
		lsn, rec, derr := decodeCommit(payload)
		if derr != nil {
			return fmt.Errorf("%s: %w", path, derr)
		}
		if lastLSN != 0 && lsn != lastLSN+1 {
			return fmt.Errorf("wal: %s: LSN %d after %d, want contiguous", path, lsn, lastLSN)
		}
		lastLSN = lsn
		if lsn <= afterLSN {
			return nil
		}
		return fn(lsn, rec)
	})
	return lastLSN, clean, err
}

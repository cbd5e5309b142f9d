package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/record"
	"repro/internal/storage"
)

// journal is the rollback journal both device files write before they
// overwrite anything in place: the page file before a checkpoint flush
// overwrites page slots (one entry per pre-image), the burn file before
// a compaction rewrites a sector region (one entry, the old region).
//
// The file is a run of record CRC frames. Frame 0 is the header —
// jrnlMagic, the installed checkpoint epoch the device must be restored
// to, then the owner's restore targets as uint64s (the page file's
// boundary page count; the burn file's region boundary and old burned
// end). Every later frame is an entry, opaque here. The protocol, the
// same for both owners:
//
//   - an entry is fsynced into the journal BEFORE the bytes it preserves
//     are overwritten, so a torn journal tail covers only untouched bytes;
//   - the journal is retired only after the checkpoint that makes the
//     overwrite the new boundary is durably installed, and that install
//     moves the epoch on — so on reopen a journal whose epoch matches the
//     installed checkpoint is a torn overwrite (replay it) and any other
//     journal is stale (discard it).
type journal struct {
	f   storage.BlockFile
	off int64
}

// createJournal starts a journal at path: the header frame plus any
// entries already in hand go out in one write and one fsync. On return
// they are durable.
func createJournal(path string, w wrapFn, epoch uint64, targets []uint64, entries ...[]byte) (*journal, error) {
	f, err := openBlock(path, true, w)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create journal: %w", err)
	}
	hdr := binary.LittleEndian.AppendUint64(append([]byte(nil), jrnlMagic[:]...), epoch)
	for _, v := range targets {
		hdr = binary.LittleEndian.AppendUint64(hdr, v)
	}
	j := &journal{f: f}
	if err := j.append(append([][]byte{hdr}, entries...)...); err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// append frames entries onto the journal's end and fsyncs. Only a nil
// return means they are durable: after an error the caller must treat
// none of them as journaled (a retry appends them again at the same
// offset).
func (j *journal) append(entries ...[]byte) error {
	var buf []byte
	for _, e := range entries {
		if len(e) > record.MaxFramePayload {
			return fmt.Errorf("pagestore: journal entry of %d bytes exceeds the frame limit", len(e))
		}
		buf = record.AppendFrame(buf, e)
	}
	if _, err := j.f.WriteAt(buf, j.off); err != nil {
		return fmt.Errorf("pagestore: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: journal sync: %w", err)
	}
	j.off += int64(len(buf))
	return nil
}

func (j *journal) close() error { return j.f.Close() }

// readJournal loads the journal at path for a device whose installed
// checkpoint has the given epoch. targets is non-nil only when the
// journal must be replayed: its header frame is intact, carries
// jrnlMagic and ntargets targets, and names that epoch. An absent
// journal, one torn inside its header (nothing was overwritten yet) and
// a stale one all come back nil. entries are the intact frames after the
// header; clean=false says a torn frame cut them short.
func readJournal(path string, epoch uint64, ntargets int) (targets []uint64, entries [][]byte, clean bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil, nil, false, nil
	}
	if err != nil {
		return nil, nil, false, err
	}
	var frames [][]byte
	clean, _ = record.WalkFrames(data, false, func(payload []byte) error {
		frames = append(frames, payload)
		return nil
	})
	if len(frames) == 0 {
		return nil, nil, false, nil
	}
	hdr := frames[0]
	if len(hdr) != 16+8*ntargets || !bytes.Equal(hdr[:8], jrnlMagic[:]) ||
		binary.LittleEndian.Uint64(hdr[8:16]) != epoch {
		return nil, nil, false, nil
	}
	targets = make([]uint64, ntargets)
	for i := range targets {
		targets[i] = binary.LittleEndian.Uint64(hdr[16+8*i:])
	}
	return targets, frames[1:], clean, nil
}

// journalPath names the journal that guards the device file at path.
func journalPath(path string) string { return path + ".journal" }

// retireJournal removes the journal file; one that is already gone is
// not an error.
func retireJournal(path string) error {
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

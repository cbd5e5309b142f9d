package pagestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"repro/internal/record"
	"repro/internal/storage"
)

// journal is the page file's rollback journal, written before a
// checkpoint flush overwrites page slots in place: one entry per
// pre-image. (The burn file never overwrites anything, so it has no
// journal; see ErrRetiredJournal.)
//
// The file is a run of record CRC frames. Frame 0 is the header —
// jrnlMagic, the installed checkpoint epoch the device must be restored
// to, then the restore boundary (the boundary page count) as a uint64.
// Every later frame is an entry, opaque here. Every frame is non-empty
// (the header is 24 bytes), so a zero-filled tail reads as a torn one.
// The protocol:
//
//   - an entry is fsynced into the journal BEFORE the bytes it preserves
//     are overwritten, so a torn journal tail covers only untouched bytes;
//   - the journal is retired only after the checkpoint that makes the
//     overwrite the new boundary is durably installed, and that install
//     moves the epoch on — so on reopen a journal whose epoch matches the
//     installed checkpoint is a torn overwrite (replay it) and any other
//     journal is stale (discard it).
type journal struct {
	f     storage.BlockFile
	off   int64  // end of the durable frames
	end   int64  // end of the frames written since the last sync
	frame []byte // one frame's bytes, reused
}

// createJournal starts a journal at path: its header frame is written
// and fsynced before it returns.
func createJournal(path string, w wrapFn, epoch, boundary uint64) (*journal, error) {
	f, err := openBlock(path, true, w)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create journal: %w", err)
	}
	hdr := binary.LittleEndian.AppendUint64(append([]byte(nil), jrnlMagic[:]...), epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, boundary)
	j := &journal{f: f}
	if err = j.write(hdr); err == nil {
		err = j.sync()
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return j, nil
}

// write frames one entry onto the journal's end, without an fsync: it
// is durable only once sync returns nil. Entries are written as they
// are produced, so a batch never holds more than one in memory.
func (j *journal) write(entry []byte) error {
	if len(entry) > record.MaxFramePayload {
		return fmt.Errorf("pagestore: journal entry of %d bytes exceeds the frame limit", len(entry))
	}
	j.frame = record.AppendFrame(j.frame[:0], entry)
	if _, err := j.f.WriteAt(j.frame, j.end); err != nil {
		return fmt.Errorf("pagestore: journal append: %w", err)
	}
	j.end += int64(len(j.frame))
	return nil
}

// sync makes every entry written since the last sync durable with one
// fsync, and issues none when nothing was written.
func (j *journal) sync() error {
	if j.end == j.off {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("pagestore: journal sync: %w", err)
	}
	j.off = j.end
	return nil
}

// discard drops the entries written since the last sync: after a failed
// write or sync none of them may count as journaled, and the next write
// lands on them again.
func (j *journal) discard() { j.end = j.off }

func (j *journal) close() error { return j.f.Close() }

// readJournal loads the journal at path for a device whose installed
// checkpoint has the given epoch. ok is true only when the journal must
// be replayed: its header frame is intact, carries jrnlMagic and a
// boundary, and names that epoch. An absent journal, one torn inside its
// header (nothing was overwritten yet) and a stale one all come back
// false. entries are the intact frames after the header, up to the first
// torn one.
func readJournal(path string, epoch uint64) (boundary uint64, entries [][]byte, ok bool, err error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, err
	}
	var frames [][]byte
	_, _ = record.WalkFrames(data, func(payload []byte) error {
		frames = append(frames, payload)
		return nil
	})
	if len(frames) == 0 {
		return 0, nil, false, nil
	}
	hdr := frames[0]
	if len(hdr) != 24 || !bytes.Equal(hdr[:8], jrnlMagic[:]) ||
		binary.LittleEndian.Uint64(hdr[8:16]) != epoch {
		return 0, nil, false, nil
	}
	return binary.LittleEndian.Uint64(hdr[16:24]), frames[1:], true, nil
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

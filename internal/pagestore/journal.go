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
	f   storage.BlockFile
	off int64
}

// createJournal starts a journal at path: the header frame plus any
// entries already in hand go out in one write and one fsync. On return
// they are durable.
func createJournal(path string, w wrapFn, epoch, boundary uint64, entries ...[]byte) (*journal, error) {
	f, err := openBlock(path, true, w)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create journal: %w", err)
	}
	hdr := binary.LittleEndian.AppendUint64(append([]byte(nil), jrnlMagic[:]...), epoch)
	hdr = binary.LittleEndian.AppendUint64(hdr, boundary)
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

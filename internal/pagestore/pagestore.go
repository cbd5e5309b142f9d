// Package pagestore implements the file-backed storage devices of a
// durable database: the two-tier hierarchy the paper designs for (§1)
// held in real disk files instead of in-memory simulations.
//
//   - PageFile is the magnetic disk: a mutable array of fixed-size
//     pages, each stored as a CRC-guarded frame, read and written at
//     page offsets. Between checkpoints the file is never touched (the
//     buffer pool above it runs a no-steal policy); a checkpoint
//     flushes the dirty pages through a rollback journal so the on-disk
//     image always reconstructs to a page-consistent boundary, even if
//     the flush itself is torn by a crash.
//
//   - BurnFile is the WORM disk: an append-only run of CRC-guarded
//     sector frames, each written exactly once. Reopening verifies the
//     unsynced tail sector by sector and clips it at the first torn
//     frame; intact sectors past the checkpoint boundary are kept as
//     burned waste, exactly as unacknowledged burns on write-once media
//     would be, and never reclaimed.
//
// Only the page file is ever overwritten in place, and only behind the
// rollback journal (journal.go): a checkpoint flush journals page
// pre-images. The burn file is written once; a journal beside it can
// only come from an older release's WORM compaction and is refused
// (ErrRetiredJournal).
//
// Both devices keep the paper's accounting (SpaceM via
// storage.MagneticStats, SpaceO and burned-vs-payload via
// storage.WORMStats) and satisfy the storage.PageDevice and
// storage.WORMDevice contracts, so the TSB-trees run on them unchanged.
// The wal checkpoint records the metadata that reattaches a
// database to these files (allocator state, tree roots, the burned
// boundary); see internal/db for the checkpoint and recovery protocol.
package pagestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/storage"
)

// ErrCorrupt is returned when a frame's CRC does not match its payload:
// the page or sector was torn by a crash or damaged at rest.
var ErrCorrupt = errors.New("pagestore: CRC mismatch")

// fileHeaderSize is the fixed preamble of both device files: an 8-byte
// magic plus the block size, zero-padded for future format needs.
const fileHeaderSize = 64

var (
	pageMagic = [8]byte{'T', 'S', 'B', 'P', 'A', 'G', 'E', 1}
	burnMagic = [8]byte{'T', 'S', 'B', 'W', 'O', 'R', 'M', 1}
	jrnlMagic = [8]byte{'T', 'S', 'B', 'J', 'R', 'N', 'L', 1}
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// wrapFn is the fault-injection seam: every file a device opens for
// writing is passed through it (storage.TornBlockFile in crash tests).
type wrapFn func(storage.BlockFile) storage.BlockFile

// openBlock opens (or creates) path as a BlockFile through the wrap
// seam.
func openBlock(path string, create bool, w wrapFn) (storage.BlockFile, error) {
	flags := os.O_RDWR
	if create {
		flags |= os.O_CREATE | os.O_TRUNC
	}
	raw, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if w == nil {
		return raw, nil
	}
	return w(raw), nil
}

// createDevice makes a fresh, empty device file at path — the 64-byte
// preamble (magic + block size) and nothing else — and removes any stale
// journal beside it.
func createDevice(path string, w wrapFn, magic [8]byte, blockSize int) (storage.BlockFile, error) {
	if blockSize <= 0 {
		return nil, fmt.Errorf("pagestore: %s: block size %d", path, blockSize)
	}
	f, err := openBlock(path, true, w)
	if err != nil {
		return nil, fmt.Errorf("pagestore: create %s: %w", path, err)
	}
	var hdr [fileHeaderSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockSize))
	if _, err = f.WriteAt(hdr[:], 0); err != nil {
		err = fmt.Errorf("pagestore: %s: write header: %w", path, err)
	} else {
		err = retireJournal(journalPath(path))
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// openDevice opens an existing device file, verifies its preamble and
// returns the block size it records; wantSize, when nonzero, must agree.
func openDevice(path string, w wrapFn, magic [8]byte, wantSize int) (storage.BlockFile, int, error) {
	f, err := openBlock(path, false, w)
	if err != nil {
		return nil, 0, fmt.Errorf("pagestore: open %s: %w", path, err)
	}
	size, err := readFileHeader(f, magic, path)
	if err == nil && wantSize != 0 && wantSize != size {
		err = fmt.Errorf("pagestore: %s has %d-byte blocks, config asks for %d", path, size, wantSize)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

// readFileHeader verifies the preamble and returns the block size.
func readFileHeader(f io.ReaderAt, magic [8]byte, path string) (int, error) {
	var hdr [fileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("pagestore: %s: read header: %w", path, err)
	}
	if !bytes.Equal(hdr[:8], magic[:]) {
		return 0, fmt.Errorf("pagestore: %s: bad magic (not a device file, or wrong kind)", path)
	}
	size := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if size <= 0 {
		return 0, fmt.Errorf("pagestore: %s: block size %d in header", path, size)
	}
	return size, nil
}

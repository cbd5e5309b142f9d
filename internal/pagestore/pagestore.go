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
//     would be.
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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

func wrap(w wrapFn, f storage.BlockFile) storage.BlockFile {
	if w == nil {
		return f
	}
	return w(f)
}

// writeFileHeader writes the 64-byte preamble: magic + block size.
func writeFileHeader(f storage.BlockFile, magic [8]byte, blockSize int) error {
	var hdr [fileHeaderSize]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], uint32(blockSize))
	_, err := f.WriteAt(hdr[:], 0)
	return err
}

// readFileHeader verifies the preamble and returns the block size.
func readFileHeader(f storage.BlockFile, magic [8]byte, path string) (int, error) {
	var hdr [fileHeaderSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return 0, fmt.Errorf("pagestore: %s: read header: %w", path, err)
	}
	for i := range magic {
		if hdr[i] != magic[i] {
			return 0, fmt.Errorf("pagestore: %s: bad magic (not a device file, or wrong kind)", path)
		}
	}
	size := int(binary.LittleEndian.Uint32(hdr[8:12]))
	if size <= 0 {
		return 0, fmt.Errorf("pagestore: %s: block size %d in header", path, size)
	}
	return size, nil
}

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
	return wrap(w, raw), nil
}

// crcFrame appends an 8-byte (length, CRC32-C) header plus payload to
// buf — the same framing the WAL uses, reused for journal entries.
func crcFrame(buf, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(append(buf, hdr[:]...), payload...)
}

// parseCRCFrames walks a buffer of crcFrame-encoded frames, calling fn
// for each intact payload, and reports whether the walk consumed the
// whole buffer without hitting a torn or corrupt frame.
func parseCRCFrames(buf []byte, fn func(payload []byte) error) (clean bool, err error) {
	off := 0
	for off+8 <= len(buf) {
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		crc := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n < 0 || off+8+n > len(buf) {
			return false, nil
		}
		payload := buf[off+8 : off+8+n]
		if crc32.Checksum(payload, castagnoli) != crc {
			return false, nil
		}
		if err := fn(payload); err != nil {
			return false, err
		}
		off += 8 + n
	}
	return off == len(buf), nil
}

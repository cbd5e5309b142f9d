package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/record"
	"repro/internal/storage"
)

// PagedCheckpointFormatVersion identifies the checkpoint format, the
// only one the engine writes or reads: the database pages live in the
// device files (internal/pagestore), flushed before the checkpoint is
// installed, and the checkpoint is a header, one PagedMeta frame
// reattaching the engine to them at a page-consistent boundary — every
// tree captured at the header's LSN — and the footer that seals it. Its
// log tail logs each transaction's index writes in its commit frame.
const PagedCheckpointFormatVersion = 6

// retiredFormats names the formats the engine no longer reads. Format 3
// dumped every committed version per shard, for a database held in RAM
// on simulated disks; format 4 captured each tree at its own LSN, one
// per shard plus one for the secondary indexes; format 5's log tail
// carries no index writes.
var retiredFormats = map[uint64]string{
	3: "the logical version dump",
	4: "the per-shard fuzzy checkpoint",
	5: "the checkpoint whose log tail carries no index writes",
}

// ErrRetiredFormat is returned by ReadCheckpoint for a checkpoint in a
// format this engine no longer reads. The directory holds a real
// database, so the caller must stop, not treat it as empty.
var ErrRetiredFormat = errors.New("wal: checkpoint is in a retired format")

const (
	checkpointName    = "CHECKPOINT"
	checkpointTmpName = "CHECKPOINT.tmp"
)

// CheckpointInfo is a checkpoint: the header fields plus the PagedMeta
// frame.
type CheckpointInfo struct {
	// Shards is the key-range shard count; a durable database reopens
	// with the same count.
	Shards int
	// Clock is the commit clock at the boundary: a lower bound of the
	// clock recovery resumes at.
	Clock record.Timestamp
	// LSN is the boundary every tree image in Paged was captured at:
	// replay applies every record after it, and segments wholly at or
	// below it are deleted once the checkpoint lands.
	LSN uint64
	// Paged is the device/tree metadata. Never nil in a checkpoint
	// ReadCheckpoint returned.
	Paged *PagedMeta
}

// WriteCheckpoint durably writes a checkpoint: header, the PagedMeta
// frame, then a footer proving completeness, all CRC-framed, fsynced to
// a temporary file and atomically renamed into place. The device files
// the meta describes must already be flushed and fsynced. wrap is the
// fault-injection seam (may be nil).
//
//tsb:io
//tsb:sticky
//tsb:syncs
func WriteCheckpoint(dir string, wrap func(storage.LogFile) storage.LogFile, info CheckpointInfo) (err error) {
	tmpPath := filepath.Join(dir, checkpointTmpName)
	raw, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create checkpoint: %w", err)
	}
	f := storage.LogFile(raw)
	if wrap != nil {
		f = wrap(f)
	}
	defer func() {
		if err != nil {
			_ = f.Close()
			_ = os.Remove(tmpPath)
		}
	}()

	write := func(payload []byte) error {
		if _, werr := f.Write(record.AppendFrame(nil, payload)); werr != nil {
			return fmt.Errorf("wal: write checkpoint: %w", werr)
		}
		return nil
	}

	e := record.NewEncoder(nil)
	e.Byte(frameCheckpointHeader)
	e.Uvarint(PagedCheckpointFormatVersion)
	e.Uvarint(uint64(info.Shards))
	e.Time(info.Clock)
	e.Uvarint(info.LSN)
	if err = write(e.Bytes()); err != nil {
		return err
	}

	if err = write(encodePagedMeta(info.Paged)); err != nil {
		return err
	}

	e = record.NewEncoder(nil)
	e.Byte(frameCheckpointFooter)
	e.Uvarint(info.LSN)
	if err = write(e.Bytes()); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return fmt.Errorf("wal: sync checkpoint: %w", err)
	}
	if err = f.Close(); err != nil {
		return fmt.Errorf("wal: close checkpoint: %w", err)
	}
	if err = os.Rename(tmpPath, filepath.Join(dir, checkpointName)); err != nil {
		return fmt.Errorf("wal: install checkpoint: %w", err)
	}
	syncDir(dir)
	return nil
}

// ReadCheckpoint reads and verifies dir's checkpoint. found=false means
// no checkpoint exists (a fresh or pre-first-checkpoint directory). A
// checkpoint is only ever installed complete, so a torn or incomplete
// one is corruption, not a crash artifact: the error says so. A
// checkpoint in a retired format (3, 4 or 5) fails with ErrRetiredFormat.
func ReadCheckpoint(dir string) (info CheckpointInfo, found bool, err error) {
	path := filepath.Join(dir, checkpointName)
	buf, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CheckpointInfo{}, false, nil
	}
	if err != nil {
		return CheckpointInfo{}, false, err
	}
	if info, err = parseCheckpoint(path, buf); err != nil {
		return CheckpointInfo{}, false, err
	}
	return info, true, nil
}

// parseCheckpoint decodes and verifies the bytes of the checkpoint file
// at path (named in errors only).
func parseCheckpoint(path string, buf []byte) (info CheckpointInfo, err error) {
	sawHeader, sawFooter := false, false
	clean, err := record.WalkFrames(buf, func(payload []byte) error {
		d := record.NewDecoder(payload)
		switch typ := d.Byte(); typ {
		case frameCheckpointHeader:
			if sawHeader {
				return fmt.Errorf("wal: duplicate checkpoint header")
			}
			sawHeader = true
			if version := d.Uvarint(); version != PagedCheckpointFormatVersion {
				if name, ok := retiredFormats[version]; ok {
					return fmt.Errorf("%w: %s is format %d, %s; this engine reads only format %d",
						ErrRetiredFormat, path, version, name, PagedCheckpointFormatVersion)
				}
				return fmt.Errorf("wal: checkpoint format %d, want %d", version, PagedCheckpointFormatVersion)
			}
			info.Shards = int(d.Uvarint())
			info.Clock = d.Time()
			info.LSN = d.Uvarint()
			if err := d.Err(); err != nil {
				return fmt.Errorf("wal: checkpoint header: %w", err)
			}
			return nil
		case framePagedMeta:
			if !sawHeader || sawFooter {
				return fmt.Errorf("wal: misplaced paged-meta frame")
			}
			if info.Paged != nil {
				return fmt.Errorf("wal: duplicate paged-meta frame")
			}
			m, merr := decodePagedMeta(d)
			if merr != nil {
				return merr
			}
			if len(m.Shards) != info.Shards {
				return fmt.Errorf("wal: paged meta has %d shard images, header says %d",
					len(m.Shards), info.Shards)
			}
			info.Paged = m
			return nil
		case frameCheckpointFooter:
			if !sawHeader || sawFooter {
				return fmt.Errorf("wal: misplaced checkpoint footer")
			}
			sawFooter = true
			if lsn := d.Uvarint(); d.Err() != nil || lsn != info.LSN {
				return fmt.Errorf("wal: checkpoint footer LSN %d, header says %d", lsn, info.LSN)
			}
			return nil
		default:
			return fmt.Errorf("wal: unknown checkpoint frame type %d", typ)
		}
	})
	if err != nil {
		return CheckpointInfo{}, err
	}
	if !clean || !sawHeader || !sawFooter {
		return CheckpointInfo{}, fmt.Errorf("wal: checkpoint incomplete or corrupt")
	}
	if info.Paged == nil {
		return CheckpointInfo{}, fmt.Errorf("wal: checkpoint missing its paged-meta frame")
	}
	return info, nil
}

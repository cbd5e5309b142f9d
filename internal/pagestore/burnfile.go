package pagestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Sector frames: each burned sector occupies a fixed slot of
// burnFrameHeader + SectorSize bytes — the payload length (1..SectorSize;
// an Append never burns an empty sector, so a zeroed slot can never
// validate) and its CRC32-C.
const burnFrameHeader = 8

// BurnConfig configures a BurnFile.
type BurnConfig struct {
	Path       string
	SectorSize int
	// Wrap is the fault-injection seam (storage.TornBlockFile).
	Wrap func(storage.BlockFile) storage.BlockFile
}

// ReopenReport says what OpenBurn found past the checkpoint boundary.
type ReopenReport struct {
	// OrphanSectors were burned intact after the boundary but are
	// referenced by nothing the boundary image knows: kept as burned
	// waste, exactly as unacknowledged burns on write-once media are.
	OrphanSectors uint64
	// OrphanPayloadBytes is the payload carried by those orphan sectors:
	// dead bytes nothing will ever reference, and permanent waste.
	OrphanPayloadBytes uint64
	// Clipped reports whether a torn tail was truncated away, and
	// ClippedAt the first bad sector.
	Clipped   bool
	ClippedAt uint64
}

// BurnFile is the file-backed WORM disk: an append-only run of
// CRC-guarded sector frames implementing storage.WORMDevice. Appends
// burn consolidated variable-length runs (§3.4) and are never
// rewritten; durability comes from the checkpoint's Sync, and reopening
// verifies the unsynced tail sector by sector, clipping it at the first
// torn frame. It is safe for concurrent use.
type BurnFile struct {
	mu         sync.Mutex //tsb:latch level=7 name=burn-file
	cfg        BurnConfig
	f          storage.BlockFile
	sectorSize int
	reserved   uint64 // == sectors burned; appends only
	stats      storage.WORMStats

	// Device latency instruments; recorded under the burn-file latch the
	// operations already hold, named by RegisterMetrics.
	burnHist obs.Histogram // one Append run per observation
	readHist obs.Histogram // one ReadAt run per observation
}

// ErrRetiredJournal refuses a burn file with a journal beside it. Older
// releases rewrote burned sectors in place (WORM compaction) behind that
// journal; this release never does, so the file can only be a compaction
// an older binary left unfinished, which may need rolling back before
// the directory is consistent again. Open the directory once with the
// previous release to finish or roll it back.
var ErrRetiredJournal = errors.New("pagestore: retired WORM compaction journal")

// refuseRetiredJournal fails with ErrRetiredJournal, naming the file,
// when the burn file at path has a journal. It reads nothing and changes
// nothing: the journal is neither replayed, deleted nor skipped.
func refuseRetiredJournal(path string) error {
	jp := journalPath(path)
	_, err := os.Stat(jp)
	switch {
	case err == nil:
		return fmt.Errorf("%w: %s (left by an older release; open the directory once with the previous release)", ErrRetiredJournal, jp)
	case os.IsNotExist(err):
		return nil
	default:
		return fmt.Errorf("pagestore: %s: %w", jp, err)
	}
}

// CreateBurn makes a fresh, empty burn file.
func CreateBurn(cfg BurnConfig) (*BurnFile, error) {
	if err := refuseRetiredJournal(cfg.Path); err != nil {
		return nil, err
	}
	f, err := createDevice(cfg.Path, cfg.Wrap, burnMagic, cfg.SectorSize)
	if err != nil {
		return nil, err
	}
	return &BurnFile{cfg: cfg, f: f, sectorSize: cfg.SectorSize}, nil
}

// OpenBurn reattaches to an existing burn file. The installed checkpoint
// guarantees `durable` sectors (fsynced at the boundary) with cumulative
// stats `base`; the tail past them was never acknowledged, so it is
// verified frame by frame — intact sectors stay as burned waste
// (write-once media cannot un-burn), and the file is truncated at the
// first torn or corrupt frame.
func OpenBurn(cfg BurnConfig, durable uint64, base storage.WORMStats) (*BurnFile, ReopenReport, error) {
	if err := refuseRetiredJournal(cfg.Path); err != nil {
		return nil, ReopenReport{}, err
	}
	f, size, err := openDevice(cfg.Path, cfg.Wrap, burnMagic, cfg.SectorSize)
	if err != nil {
		return nil, ReopenReport{}, err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	b := &BurnFile{cfg: cfg, f: f, sectorSize: size, reserved: durable, stats: base}
	var rep ReopenReport
	buf := make([]byte, burnFrameHeader+size)
	for s := durable; ; s++ {
		n, rerr := f.ReadAt(buf, b.frameOff(s))
		if rerr != nil && rerr != io.EOF {
			return nil, ReopenReport{}, fmt.Errorf("pagestore: %s: verify sector %d: %w", cfg.Path, s, rerr)
		}
		if n == 0 {
			break // clean end of file
		}
		plen, valid := decodeBurnFrame(buf[:n], size)
		if !valid {
			rep.Clipped = true
			rep.ClippedAt = s
			if err := f.Truncate(b.frameOff(s)); err != nil {
				return nil, ReopenReport{}, fmt.Errorf("pagestore: %s: clip torn tail at sector %d: %w", cfg.Path, s, err)
			}
			if err := f.Sync(); err != nil {
				return nil, ReopenReport{}, err
			}
			break
		}
		// An intact unacknowledged burn: keep it, account it.
		b.reserved = s + 1
		rep.OrphanSectors++
		rep.OrphanPayloadBytes += uint64(plen)
		b.stats.SectorsBurned++
		b.stats.SectorWrites++
		b.stats.PayloadBytes += uint64(plen)
		b.stats.WastedBytes += uint64(size - plen)
	}
	ok = true
	return b, rep, nil
}

// frameOff returns the file offset of sector s's slot.
func (b *BurnFile) frameOff(s uint64) int64 {
	return fileHeaderSize + int64(s)*int64(burnFrameHeader+b.sectorSize)
}

// decodeBurnFrame validates one sector slot and returns its payload
// length. Zeroed or short slots (holes, torn writes) never validate.
func decodeBurnFrame(buf []byte, sectorSize int) (plen int, valid bool) {
	if len(buf) < burnFrameHeader {
		return 0, false
	}
	plen = int(binary.LittleEndian.Uint32(buf[0:4]))
	crc := binary.LittleEndian.Uint32(buf[4:8])
	if plen < 1 || plen > sectorSize || burnFrameHeader+plen > len(buf) {
		return 0, false
	}
	if crc32.Checksum(buf[burnFrameHeader:burnFrameHeader+plen], castagnoli) != crc {
		return 0, false
	}
	return plen, true
}

// sectorFrames encodes data as a consolidated run of sector slots: every
// sector filled to capacity except possibly the last, which is
// zero-padded to the slot size. The one encoder of burned bytes.
func sectorFrames(data []byte, sectorSize int) (buf []byte, nsect int) {
	nsect = (len(data) + sectorSize - 1) / sectorSize
	buf = make([]byte, 0, nsect*(burnFrameHeader+sectorSize))
	for lo := 0; lo < len(data); lo += sectorSize {
		chunk := data[lo:min(lo+sectorSize, len(data))]
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(chunk)))
		buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(chunk, castagnoli))
		buf = append(buf, chunk...)
		buf = append(buf, make([]byte, sectorSize-len(chunk))...)
	}
	return buf, nsect
}

// SectorSize returns the fixed sector size in bytes.
func (b *BurnFile) SectorSize() int { return b.sectorSize }

// Burned returns the number of sectors burned so far.
func (b *BurnFile) Burned() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.reserved
}

// Append burns data as a consolidated run of sectors at the end of the
// file and returns its address: the TSB-tree's high-utilization
// migration path. Every sector of the run is filled to capacity except
// possibly the last. The burn is durable only after the next Sync (the
// checkpoint boundary); an unsynced run that a crash tears is clipped
// on reopen, and the commit that wrote it is replayed from the WAL.
func (b *BurnFile) Append(data []byte) (storage.Addr, error) {
	if len(data) == 0 {
		return storage.NilAddr, fmt.Errorf("pagestore: empty append")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	first := b.reserved
	buf, nsect := sectorFrames(data, b.sectorSize)
	start := time.Now()
	if _, err := b.f.WriteAt(buf, b.frameOff(first)); err != nil {
		// The run may be partially on disk; reserve it anyway so no
		// later append can overlap a half-burned slot (write-once),
		// and count the whole run as burned waste — the capacity is
		// consumed whether or not the bits landed, and Burned() must
		// never run ahead of the SectorsBurned accounting.
		b.reserved += uint64(nsect)
		b.stats.SectorsBurned += uint64(nsect)
		b.stats.WastedBytes += uint64(nsect * b.sectorSize)
		return storage.NilAddr, fmt.Errorf("pagestore: burn at sector %d: %w", first, err)
	}
	b.reserved += uint64(nsect)
	b.stats.Appends++
	b.stats.SectorWrites += uint64(nsect)
	b.stats.SectorsBurned += uint64(nsect)
	b.stats.PayloadBytes += uint64(len(data))
	b.stats.WastedBytes += uint64(nsect*b.sectorSize - len(data))
	elapsed := time.Since(start)
	b.stats.SimTime += elapsed
	b.burnHist.Observe(elapsed)
	return storage.Addr{Kind: storage.KindWORM, Off: first, Len: uint32(len(data))}, nil
}

// ReadAt reads back the payload of a run written by Append, verifying
// each sector's CRC.
func (b *BurnFile) ReadAt(addr storage.Addr) ([]byte, error) {
	if addr.Kind != storage.KindWORM {
		return nil, fmt.Errorf("%w: non-WORM address %s", storage.ErrBadPage, addr)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	start := time.Now()
	out := make([]byte, 0, addr.Len)
	buf := make([]byte, burnFrameHeader+b.sectorSize)
	for s := addr.Off; uint32(len(out)) < addr.Len; s++ {
		if s >= b.reserved {
			return nil, fmt.Errorf("%w: sector %d", storage.ErrUnwritten, s)
		}
		n, err := b.f.ReadAt(buf, b.frameOff(s))
		if err != nil && err != io.EOF {
			return nil, fmt.Errorf("pagestore: read sector %d: %w", s, err)
		}
		plen, valid := decodeBurnFrame(buf[:n], b.sectorSize)
		if !valid {
			return nil, fmt.Errorf("%w: sector %d", ErrCorrupt, s)
		}
		out = append(out, buf[burnFrameHeader:burnFrameHeader+plen]...)
		b.stats.SectorReads++
	}
	elapsed := time.Since(start)
	b.stats.SimTime += elapsed
	b.readHist.Observe(elapsed)
	return out[:addr.Len], nil
}

// Sync makes every burned sector durable: the checkpoint boundary
// barrier.
func (b *BurnFile) Sync() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.Sync()
}

// RegisterMetrics names the file's device-latency histograms in r.
func (b *BurnFile) RegisterMetrics(r *obs.Registry) {
	dev := obs.Label{Key: "device", Value: "worm"}
	r.RegisterHistogram("tsb_device_burn_seconds", "WORM consolidated-run burn latency", &b.burnHist, dev)
	r.RegisterHistogram("tsb_device_read_seconds", "WORM run read-back latency", &b.readHist, dev)
}

// Stats returns a snapshot of the accounting counters (cumulative
// across reopens: OpenBurn seeds them from the checkpoint metadata).
func (b *BurnFile) Stats() storage.WORMStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.stats
}

// Close closes the burn file.
//
//tsb:sticky
func (b *BurnFile) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.f.Close()
}

var _ storage.WORMDevice = (*BurnFile)(nil)

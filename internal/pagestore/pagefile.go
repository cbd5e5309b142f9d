package pagestore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/storage"
)

// Page frames: each page occupies a fixed slot of pageFrameHeader +
// PageSize bytes. The header carries a magic (so a never-written slot —
// a file hole — is distinguishable from data), the payload length, its
// CRC32-C, and the page number (detecting misdirected writes).
const pageFrameHeader = 16

const pageFrameMagic = 0x50414745 // "PAGE"

// AllocState is the page allocator's persistent state: the checkpoint
// metadata carries it so reopening resumes allocation exactly where the
// boundary left it.
type AllocState struct {
	// Pages is the next never-allocated page number (equivalently, the
	// logical length of the page file in pages).
	Pages uint64
	// Free lists allocated-then-freed pages available for reuse.
	Free []uint64
}

// Config configures a PageFile.
type Config struct {
	// Path is the page file; Path+".journal" holds the rollback journal
	// while a checkpoint flush is in progress.
	Path string
	// PageSize is the fixed page size in bytes.
	PageSize int
	// Wrap, if set, wraps every file opened for writing — the
	// fault-injection seam (storage.TornBlockFile) for crash tests.
	Wrap func(storage.BlockFile) storage.BlockFile
}

// PageFile is the file-backed magnetic disk: a mutable array of
// fixed-size CRC-guarded pages implementing storage.PageDevice.
//
// The write protocol assumes the no-steal discipline of the paged
// durable mode: between checkpoints nothing writes the file, so its
// contents always reconstruct to the last installed checkpoint
// boundary. A checkpoint flush calls WriteBatch one or more times and
// then Sync; before any slot is overwritten, its previous contents are
// appended to the rollback journal and the journal is fsynced, so a
// crash mid-flush restores the old image (Open replays the journal) and
// the WAL tail from the old boundary still applies exactly once. After
// the new checkpoint metadata is durably installed, CompleteFlush
// retires the journal and advances the restore point.
// It is safe for concurrent use.
type PageFile struct {
	mu       sync.Mutex //tsb:latch level=7 name=page-file
	cfg      Config
	f        storage.BlockFile
	pageSize int

	next  uint64   // next never-allocated page
	free  []uint64 // recycled pages
	inUse int

	diskEpoch uint64 // checkpoint epoch the file reconstructs to
	diskPages uint64 // allocator Pages at that epoch (truncation point)

	j         *journal // open rollback journal, nil between flushes
	journaled map[uint64]bool

	stats storage.MagneticStats

	// Device latency instruments; recorded under the page-file latch the
	// operations already hold, named by RegisterMetrics.
	readHist  obs.Histogram // one ReadAt per observation
	writeHist obs.Histogram // one WriteBatch slot loop per observation
	syncHist  obs.Histogram // one fsync per observation
}

// Create makes a fresh, empty page file at cfg.Path, removing any stale
// journal: the open path for a new (or pre-first-checkpoint) directory.
func Create(cfg Config) (*PageFile, error) {
	f, err := createDevice(cfg.Path, cfg.Wrap, pageMagic, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	return &PageFile{cfg: cfg, f: f, pageSize: cfg.PageSize}, nil
}

// Open reattaches to an existing page file whose installed checkpoint
// recorded allocator state `state`, stats `base`, and epoch `epoch`. If
// a rollback journal from a torn checkpoint flush is present and its
// epoch matches, the journal is replayed — every overwritten slot gets
// its old contents back and the file is truncated to the boundary page
// count — so the file is returned page-consistent at the boundary. A
// stale journal (its checkpoint completed) is discarded.
func Open(cfg Config, state AllocState, base storage.MagneticStats, epoch uint64) (*PageFile, error) {
	f, size, err := openDevice(cfg.Path, cfg.Wrap, pageMagic, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	p := &PageFile{
		cfg:       cfg,
		f:         f,
		pageSize:  size,
		next:      state.Pages,
		free:      append([]uint64(nil), state.Free...),
		diskEpoch: epoch,
		diskPages: state.Pages,
		stats:     base,
	}
	p.inUse = int(state.Pages) - len(state.Free)
	p.stats.PagesInUse = p.inUse
	if p.stats.HighWater < p.inUse {
		p.stats.HighWater = p.inUse
	}
	if err := p.recoverJournal(epoch); err != nil {
		f.Close()
		return nil, err
	}
	return p, nil
}

// frameOff returns the file offset of page p's slot.
func (p *PageFile) frameOff(page uint64) int64 {
	return fileHeaderSize + int64(page)*int64(pageFrameHeader+p.pageSize)
}

// PageSize returns the fixed page size in bytes.
func (p *PageFile) PageSize() int { return p.pageSize }

// Pages returns the next never-allocated page number.
func (p *PageFile) Pages() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.next
}

// AllocState snapshots the allocator for the checkpoint metadata.
func (p *PageFile) AllocState() AllocState {
	p.mu.Lock()
	defer p.mu.Unlock()
	return AllocState{Pages: p.next, Free: append([]uint64(nil), p.free...)}
}

// Alloc reserves a fresh (or recycled) page. The file itself grows only
// when the page is first flushed.
func (p *PageFile) Alloc() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var page uint64
	if n := len(p.free); n > 0 {
		page = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		page = p.next
		p.next++
	}
	p.inUse++
	p.stats.Allocs++
	p.stats.PagesInUse = p.inUse
	if p.inUse > p.stats.HighWater {
		p.stats.HighWater = p.inUse
	}
	return page, nil
}

// Free releases page p for reuse. The slot's bytes are left in place;
// validity is an allocator property, not a file one.
func (p *PageFile) Free(page uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if page >= p.next {
		return fmt.Errorf("%w: free of page %d", storage.ErrBadPage, page)
	}
	p.free = append(p.free, page)
	p.inUse--
	p.stats.Frees++
	p.stats.PagesInUse = p.inUse
	return nil
}

// Read returns the payload of page `page`, verifying its CRC.
func (p *PageFile) Read(page uint64) ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if page >= p.next {
		return nil, fmt.Errorf("%w: read of page %d", storage.ErrBadPage, page)
	}
	start := time.Now()
	buf := make([]byte, pageFrameHeader+p.pageSize)
	n, err := p.f.ReadAt(buf, p.frameOff(page))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("pagestore: read page %d: %w", page, err)
	}
	p.stats.Reads++
	elapsed := time.Since(start)
	p.stats.SimTime += elapsed
	p.readHist.Observe(elapsed)
	payload, werr := decodePageFrame(buf[:n], page, p.pageSize)
	if werr != nil {
		return nil, werr
	}
	return payload, nil
}

// decodePageFrame validates one page slot's bytes and returns the
// payload. A short or zero-magic slot is ErrUnwritten; a bad CRC or
// mismatched page stamp is ErrCorrupt.
func decodePageFrame(buf []byte, page uint64, pageSize int) ([]byte, error) {
	if len(buf) < pageFrameHeader {
		return nil, fmt.Errorf("%w: page %d", storage.ErrUnwritten, page)
	}
	magic := binary.LittleEndian.Uint32(buf[0:4])
	if magic == 0 {
		return nil, fmt.Errorf("%w: page %d", storage.ErrUnwritten, page)
	}
	if magic != pageFrameMagic {
		return nil, fmt.Errorf("%w: page %d: bad frame magic %#x", ErrCorrupt, page, magic)
	}
	plen := int(binary.LittleEndian.Uint32(buf[4:8]))
	crc := binary.LittleEndian.Uint32(buf[8:12])
	stamp := binary.LittleEndian.Uint32(buf[12:16])
	if plen > pageSize || pageFrameHeader+plen > len(buf) {
		return nil, fmt.Errorf("%w: page %d: length %d", ErrCorrupt, page, plen)
	}
	if stamp != uint32(page) {
		return nil, fmt.Errorf("%w: page %d: frame stamped for page %d (misdirected write)", ErrCorrupt, page, stamp)
	}
	payload := buf[pageFrameHeader : pageFrameHeader+plen]
	if crc32.Checksum(payload, castagnoli) != crc {
		return nil, fmt.Errorf("%w: page %d", ErrCorrupt, page)
	}
	out := make([]byte, plen)
	copy(out, payload)
	return out, nil
}

// encodePageFrame builds the slot bytes for one page write.
func encodePageFrame(page uint64, data []byte) []byte {
	buf := make([]byte, pageFrameHeader+len(data))
	binary.LittleEndian.PutUint32(buf[0:4], pageFrameMagic)
	binary.LittleEndian.PutUint32(buf[4:8], uint32(len(data)))
	binary.LittleEndian.PutUint32(buf[8:12], crc32.Checksum(data, castagnoli))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(page))
	copy(buf[pageFrameHeader:], data)
	return buf
}

// Write stores one page through the journal protocol: a WriteBatch of
// one. The paged engine's hot path never takes it (writes buffer in the
// pool and flush in batches); it exists to satisfy storage.PageStore.
func (p *PageFile) Write(page uint64, data []byte) error {
	return p.WriteBatch([]uint64{page}, [][]byte{data})
}

// WriteBatch overwrites a batch of page slots, journaling the previous
// contents first: the journal is appended and fsynced before any slot
// is touched, so a crash at any point reconstructs the last installed
// boundary. Callers flush dirty pages with one or more WriteBatch
// calls, then Sync, then durably install the new checkpoint metadata,
// then CompleteFlush.
//
//tsb:io
//tsb:sticky
func (p *PageFile) WriteBatch(pages []uint64, datas [][]byte) error {
	if len(pages) != len(datas) {
		return fmt.Errorf("pagestore: WriteBatch of %d pages, %d payloads", len(pages), len(datas))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, page := range pages {
		if page >= p.next {
			return fmt.Errorf("%w: write to page %d", storage.ErrBadPage, page)
		}
		if len(datas[i]) > p.pageSize {
			return fmt.Errorf("%w: %d > page size %d", storage.ErrTooLarge, len(datas[i]), p.pageSize)
		}
	}
	if err := p.journalBatch(pages); err != nil {
		return err
	}
	start := time.Now()
	for i, page := range pages {
		frame := encodePageFrame(page, datas[i])
		if _, err := p.f.WriteAt(frame, p.frameOff(page)); err != nil {
			return fmt.Errorf("pagestore: write page %d: %w", page, err)
		}
		p.stats.Writes++
	}
	elapsed := time.Since(start)
	p.stats.SimTime += elapsed
	p.writeHist.Observe(elapsed)
	return nil
}

// Sync makes every flushed page durable.
func (p *PageFile) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	start := time.Now()
	err := p.f.Sync()
	p.syncHist.Observe(time.Since(start))
	return err
}

// Stats returns a snapshot of the accounting counters (cumulative
// across reopens: Open seeds them from the checkpoint metadata).
func (p *PageFile) Stats() storage.MagneticStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// RegisterMetrics names the file's device-latency histograms in r.
func (p *PageFile) RegisterMetrics(r *obs.Registry) {
	dev := obs.Label{Key: "device", Value: "page"}
	r.RegisterHistogram("tsb_device_read_seconds", "page-slot ReadAt latency", &p.readHist, dev)
	r.RegisterHistogram("tsb_device_write_seconds", "page-slot write-batch latency", &p.writeHist, dev)
	r.RegisterHistogram("tsb_device_sync_seconds", "page-file fsync latency", &p.syncHist, dev)
}

// Close closes the page file and any open journal.
//
//tsb:sticky
func (p *PageFile) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.j != nil {
		_ = p.j.close()
		p.j = nil
	}
	return p.f.Close()
}

// --- rollback journal ---

// journalBatch records the pre-flush contents of every not-yet-journaled
// page in the batch and fsyncs the journal. Pages past the boundary
// count need no entry: restore truncates the file back to the boundary.
func (p *PageFile) journalBatch(pages []uint64) error {
	if p.j == nil {
		j, err := createJournal(journalPath(p.cfg.Path), p.cfg.Wrap, p.diskEpoch, p.diskPages)
		if err != nil {
			return err
		}
		p.j = j
		p.journaled = make(map[uint64]bool)
	}
	// A page may be marked journaled ONLY once its entry (or its
	// covered-by-truncation status) is durable: a failed append or sync
	// must leave every page of this batch eligible for re-journaling,
	// or a retried checkpoint would overwrite slots with no durable
	// pre-image and a later crash could not restore the boundary.
	var entries [][]byte
	var fresh []uint64
	for _, page := range pages {
		if p.journaled[page] {
			continue
		}
		fresh = append(fresh, page)
		if page >= p.diskPages {
			continue // restore truncates past the boundary; no old bytes exist
		}
		old := make([]byte, pageFrameHeader+p.pageSize)
		n, err := p.f.ReadAt(old, p.frameOff(page))
		if err != nil && err != io.EOF {
			return fmt.Errorf("pagestore: journal read of page %d: %w", page, err)
		}
		kind, keep := byte(0), 0 // hole: restore zeroes the header
		if n >= pageFrameHeader && binary.LittleEndian.Uint32(old[0:4]) != 0 {
			kind, keep = 1, min(n, pageFrameHeader+int(binary.LittleEndian.Uint32(old[4:8])))
		}
		entry := binary.LittleEndian.AppendUint64([]byte{kind}, page)
		entries = append(entries, append(entry, old[:keep]...))
	}
	if len(entries) > 0 {
		if err := p.j.append(entries...); err != nil {
			return err
		}
	}
	for _, page := range fresh {
		p.journaled[page] = true
	}
	return nil
}

// CompleteFlush retires the rollback journal after the new checkpoint
// metadata is durably installed, and advances the restore point to that
// checkpoint (its epoch and boundary page count). The advance is
// unconditional — once the metadata rename landed, the installed
// boundary IS the new epoch, and recording anything else would stamp
// the next journal with a mismatched restore target. A journal file
// that cannot be removed is harmless: its epoch no longer matches the
// installed checkpoint, so recovery discards it, and the next flush
// recreates the file from scratch.
//
//tsb:io
//tsb:sticky
func (p *PageFile) CompleteFlush(epoch, boundaryPages uint64) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.diskEpoch = epoch
	p.diskPages = boundaryPages
	if p.j != nil {
		_ = p.j.close()
		p.j = nil
		p.journaled = nil
		_ = retireJournal(journalPath(p.cfg.Path))
	}
	return nil
}

// recoverJournal replays the journal a torn checkpoint flush left behind
// (readJournal says whether there is one): every intact entry restores
// its slot's old bytes — a torn entry's pages were never overwritten,
// because entries are fsynced before their slots are touched — then the
// file is truncated to the boundary page count.
func (p *PageFile) recoverJournal(epoch uint64) error {
	boundary, entries, ok, err := readJournal(journalPath(p.cfg.Path), epoch)
	if err != nil {
		return err
	}
	if ok {
		for _, entry := range entries {
			if len(entry) < 9 {
				continue
			}
			page := binary.LittleEndian.Uint64(entry[1:9])
			if page >= boundary {
				continue // truncation restores it
			}
			var old []byte
			switch entry[0] {
			case 0: // hole: zero the slot header so the page reads unwritten
				old = make([]byte, pageFrameHeader)
			case 1:
				old = entry[9:]
				if _, err := decodePageFrame(old, page, p.pageSize); err != nil {
					return fmt.Errorf("pagestore: journal entry for page %d: %w", page, err)
				}
			default:
				continue
			}
			if _, err := p.f.WriteAt(old, p.frameOff(page)); err != nil {
				return fmt.Errorf("pagestore: journal restore of page %d: %w", page, err)
			}
		}
		if err := p.f.Truncate(p.frameOff(boundary)); err != nil {
			return fmt.Errorf("pagestore: journal truncate: %w", err)
		}
		if err := p.f.Sync(); err != nil {
			return err
		}
	}
	return retireJournal(journalPath(p.cfg.Path))
}

var _ storage.PageDevice = (*PageFile)(nil)

// Package wal is the durability subsystem of the engine: an append-only,
// CRC-framed, fsync-batched write-ahead log of commit records, plus the
// checkpoint format that lets the log be truncated without stopping
// writers.
//
// # Log format
//
// The log is a sequence of numbered segment files (wal-00000001.log,
// wal-00000002.log, ...). Each segment is a run of the record package's
// CRC frames (record.AppendFrame):
//
//	| payload length (uint32 LE) | CRC32-C of payload (uint32 LE) | payload |
//
// A commit payload carries the frame's log sequence number (LSN, global
// across segments), the transaction id, the commit time, and the stamped
// write set in the record package's wire encoding, then its index
// writes, if any: a count, then each one's index name and version. Because versions are
// immutable once stamped (the non-deletion policy), redo is the whole
// recovery story: there is no undo logging — uncommitted data never
// becomes durable, so there is nothing to roll back.
//
// Replay (record.WalkFrames) stops at the first torn frame — short
// header, short payload, CRC mismatch, or the empty frame a zero-filled
// tail parses as: everything before it is the committed prefix, everything
// from it on was never acknowledged. A batch append is a single
// write+fsync, so a crash can also leave a fully intact frame whose
// committer was never acknowledged — recovery treats it as committed
// (standard presumed-durable-once-logged semantics); what it can never do
// is surface half a transaction, because a frame is exactly one
// transaction and is guarded by its CRC.
//
// # Group commit
//
// Log.AppendBatch encodes every record of a batch into one buffer,
// issues one Write and one Sync: the fsync cost of durability is
// amortized across every transaction the batch carries. Stats reports
// the ratio.
//
// # Checkpoints
//
// A checkpoint (see checkpoint.go, paged.go) carries no data: the
// database pages live in the device files (internal/pagestore), which
// the engine flushes and fsyncs first. The checkpoint is the CRC-framed
// metadata that reattaches the engine to them — tree roots, page
// allocator, WORM burned boundary — all captured at one log boundary,
// the checkpoint's LSN, so reattach plus replay of every record past it
// applies every commit to every tree exactly once. Once a checkpoint is
// durable (written to a temp file, fsynced, atomically renamed),
// segments wholly at or below its LSN are deleted: incremental
// truncation with writers running.
package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// Frame payload types.
const (
	frameCommit           = 1
	frameCheckpointHeader = 2
	// 3 was the retired logical checkpoint's shard chunk; not reused.
	frameCheckpointFooter = 4
	framePagedMeta        = 5
)

// segmentName returns the file name of segment i.
func segmentName(i uint64) string { return fmt.Sprintf("wal-%08d.log", i) }

// Segment locates one numbered log segment on disk.
type Segment struct {
	Index uint64
	Path  string
}

// Segments lists dir's log segments in index order.
func Segments(dir string) ([]Segment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []Segment
	for _, ent := range entries {
		name := ent.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		var idx uint64
		if _, err := fmt.Sscanf(name, "wal-%08d.log", &idx); err != nil || idx == 0 {
			continue
		}
		segs = append(segs, Segment{Index: idx, Path: filepath.Join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].Index < segs[j].Index })
	return segs, nil
}

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segments and checkpoints.
	Dir string
	// CheckpointBytes is the backlog at which a checkpoint is due: every
	// append that leaves BacklogBytes at or over it signals CheckpointDue.
	// 0 selects 4 MiB; negative never signals.
	CheckpointBytes int64
	// WrapFile, if set, wraps every file the log opens for writing —
	// the fault-injection seam (storage.TornLogFile) for torn-write
	// crash tests.
	WrapFile func(storage.LogFile) storage.LogFile
}

func (o Options) wrap(f storage.LogFile) storage.LogFile {
	if o.WrapFile == nil {
		return f
	}
	return o.WrapFile(f)
}

// Stats is the log writer's accounting. Records/Syncs is the group
// commit amortization factor; BacklogBytes is the admission-control and
// checkpoint-scheduling gauge.
type Stats struct {
	Appends uint64 // batches appended
	Records uint64 // commit records appended
	Syncs   uint64 // fsyncs issued for appends
	Bytes   uint64 // bytes durably written to segments
	// BacklogBytes is Bytes minus its value at the Rotate boundary the
	// last MarkCheckpoint covered: the log tail a crash now would replay.
	// After a reopen it counts from the reopened log, whose tail the
	// checkpoint ending every durable open covers.
	BacklogBytes uint64
}

// Log is the append side of the write-ahead log. It is safe for
// concurrent use, though the transaction manager only ever appends from
// one batch leader at a time.
type Log struct {
	mu     sync.Mutex //tsb:latch level=4 name=wal
	opts   Options
	f      storage.LogFile
	seg    uint64
	lsn    uint64
	broken error
	// The append accounting lives in obs instruments — the one source
	// of truth; Stats() derives its snapshot from them and
	// RegisterMetrics names them for exposition.
	appends obs.Counter
	records obs.Counter
	syncs   obs.Counter
	bytes   obs.Counter
	fsync   obs.Histogram // append-path fsync latency
	// ckptBytes anchors BacklogBytes: rotBytes (bytes.Load() at the last
	// Rotate, under mu) as of the last MarkCheckpoint. It is atomic so
	// that BacklogBytes reads it without mu, which an append holds across
	// its fsync.
	ckptBytes atomic.Uint64
	rotBytes  uint64
	due       chan struct{} // the pending CheckpointDue signal, if any; under mu
}

// Open opens a log in opts.Dir for appending, starting a fresh segment
// numbered nextSeg (1 for an empty directory; one past the last existing
// segment after recovery — the torn tail of an old segment is never
// appended to). lastLSN seeds the sequence numbers.
func Open(opts Options, nextSeg, lastLSN uint64) (*Log, error) {
	if nextSeg == 0 {
		nextSeg = 1
	}
	if opts.CheckpointBytes == 0 {
		opts.CheckpointBytes = 4 << 20
	}
	l := &Log{opts: opts, lsn: lastLSN, due: make(chan struct{}, 1)}
	if err := l.openSegment(nextSeg); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment creates segment i and makes it current. Called under mu
// (or before the log is shared).
func (l *Log) openSegment(i uint64) error {
	f, err := os.OpenFile(filepath.Join(l.opts.Dir, segmentName(i)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %d: %w", i, err)
	}
	l.f = l.opts.wrap(f)
	l.seg = i
	syncDir(l.opts.Dir)
	return nil
}

// encodeCommit builds the payload of one commit frame.
func encodeCommit(lsn uint64, rec txn.CommitRecord) []byte {
	e := record.NewEncoder(nil)
	e.Byte(frameCommit)
	e.Uvarint(lsn)
	e.Uvarint(rec.TxnID)
	e.Time(rec.Time)
	e.Versions(rec.Versions)
	if len(rec.Index) > 0 {
		e.Uvarint(uint64(len(rec.Index)))
		for _, w := range rec.Index {
			e.Blob([]byte(w.Index))
			e.Version(w.Version)
		}
	}
	return e.Bytes()
}

// AppendBatch appends one frame per commit record and makes them all
// durable with a single write and a single fsync — the group-commit
// amortization. On error the log is broken: the batch (and everything
// after it) must be considered unacknowledged, and recovery decides what
// actually persisted. An append that leaves the backlog at or over
// Options.CheckpointBytes signals CheckpointDue before it returns.
func (l *Log) AppendBatch(recs []txn.CommitRecord) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return l.broken
	}
	var buf []byte
	for _, rec := range recs {
		l.lsn++
		buf = record.AppendFrame(buf, encodeCommit(l.lsn, rec))
	}
	n, err := l.f.Write(buf)
	l.bytes.Add(uint64(n))
	if err != nil {
		l.broken = fmt.Errorf("wal: segment %d append: %w", l.seg, err)
		return l.broken
	}
	syncStart := time.Now()
	if err := l.f.Sync(); err != nil {
		l.broken = fmt.Errorf("wal: segment %d sync: %w", l.seg, err)
		return l.broken
	}
	l.fsync.Observe(time.Since(syncStart))
	l.appends.Inc()
	l.records.Add(uint64(len(recs)))
	l.syncs.Inc()
	if t := l.opts.CheckpointBytes; t > 0 && l.bytes.Load()-l.ckptBytes.Load() >= uint64(t) {
		select {
		case l.due <- struct{}{}:
		default: // one pending signal already says it
		}
	}
	return nil
}

// CheckpointDue receives a signal once an append has left the backlog at
// or over Options.CheckpointBytes; MarkCheckpoint may withdraw it.
func (l *Log) CheckpointDue() <-chan struct{} { return l.due }

// Rotate closes the current segment and starts the next one, returning
// the LSN boundary: every record at or below it is in a closed segment.
// The checkpointer calls this under the commit manager's Quiesce, so the
// boundary also means "fully posted to the store".
//
//tsb:io
//tsb:sticky
//tsb:locks wal
func (l *Log) Rotate() (lastLSN uint64, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, l.broken
	}
	// Every append already synced, so closing loses nothing.
	if err := l.f.Close(); err != nil {
		l.broken = fmt.Errorf("wal: close segment %d: %w", l.seg, err)
		return 0, l.broken
	}
	if err := l.openSegment(l.seg + 1); err != nil {
		l.broken = err
		return 0, err
	}
	l.rotBytes = l.bytes.Load()
	return l.lsn, nil
}

// BacklogBytes is Stats().BacklogBytes read without the log latch, which
// an append holds across its fsync: cheap enough to check on every
// write.
func (l *Log) BacklogBytes() uint64 {
	// The anchor is a past value of bytes, and bytes only grows: loaded
	// in this order the difference cannot underflow.
	anchor := l.ckptBytes.Load()
	return l.bytes.Load() - anchor
}

// Stats returns a snapshot of the append accounting, derived from the
// log's registered instruments.
//
//tsb:locks wal
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	st := Stats{
		Appends: l.appends.Load(),
		Records: l.records.Load(),
		Syncs:   l.syncs.Load(),
		Bytes:   l.bytes.Load(),
	}
	st.BacklogBytes = st.Bytes - l.ckptBytes.Load()
	return st
}

// RegisterMetrics names the log's instruments in r; the engine facade
// calls it once at open. The derived gauges read the instruments
// without the log mutex.
func (l *Log) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter("tsb_wal_appends_total", "group-commit batches appended", &l.appends)
	r.RegisterCounter("tsb_wal_records_total", "commit records appended", &l.records)
	r.RegisterCounter("tsb_wal_syncs_total", "append-path fsyncs issued", &l.syncs)
	r.RegisterCounter("tsb_wal_bytes_total", "bytes durably written to log segments", &l.bytes)
	r.RegisterHistogram("tsb_wal_fsync_seconds", "append-path fsync latency", &l.fsync)
	r.GaugeFunc("tsb_wal_backlog_bytes", "log bytes appended since the last checkpoint install", func() float64 {
		return float64(l.BacklogBytes())
	})
	r.GaugeFunc("tsb_wal_records_per_sync", "group-commit amortization: commit records per fsync", func() float64 {
		syncs := l.syncs.Load()
		if syncs == 0 {
			return 0
		}
		return float64(l.records.Load()) / float64(syncs)
	})
}

// MarkCheckpoint is the log's half of a durably installed checkpoint:
// it deletes the segments below the current one and re-anchors
// BacklogBytes at the last Rotate boundary, which the checkpoint covers.
// An unreceived CheckpointDue signal is withdrawn unless the appends
// since that boundary alone reach the threshold.
//
//tsb:io
//tsb:sticky
//tsb:locks wal
func (l *Log) MarkCheckpoint() error {
	l.mu.Lock()
	keep := l.seg
	l.mu.Unlock()
	segs, err := Segments(l.opts.Dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Index >= keep {
			continue
		}
		if err := os.Remove(s.Path); err != nil {
			return fmt.Errorf("wal: remove %s: %w", s.Path, err)
		}
	}
	syncDir(l.opts.Dir)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.ckptBytes.Store(l.rotBytes)
	if t := l.opts.CheckpointBytes; t <= 0 || l.bytes.Load()-l.ckptBytes.Load() < uint64(t) {
		select {
		case <-l.due:
		default:
		}
	}
	return nil
}

// Close closes the current segment. Further appends fail.
//
//tsb:sticky
//tsb:locks wal
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		// Best-effort close of a dead device; the error that broke the
		// log already reached the committers.
		_ = l.f.Close()
		return nil
	}
	l.broken = fmt.Errorf("wal: log closed")
	return l.f.Close()
}

// syncDir fsyncs a directory so renames and creates are durable.
// Best-effort: not every platform supports it, and the simulated crash
// tests do not model directory-entry loss.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

var _ txn.CommitLog = (*Log)(nil)

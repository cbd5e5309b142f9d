package db

// Opening, recovering, checkpointing and closing a durable database
// (Config.Dir). The durability contract is in the package documentation;
// the checkpoint protocol and its body (flushAndInstall) are in paged.go.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/buffer"
	"repro/internal/pagestore"
	"repro/internal/record"
	"repro/internal/txn"
	"repro/internal/wal"
)

// ErrClosed is returned by operations on a closed durable database.
var ErrClosed = errors.New("db: database closed")

// ErrLocked is returned when the durable directory is already open —
// by another process or another handle in this one. Two writers on one
// log would interleave segments and lose acknowledged commits.
var ErrLocked = errors.New("db: directory already open")

// lockDir takes an exclusive advisory lock on dir/LOCK. The kernel
// releases it when the holder dies, so a crashed process never leaves a
// stale lock behind (which is why this is flock, not O_EXCL creation).
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("db: lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	return f, nil
}

// lockAndReadCheckpoint creates and locks cfg.Dir, reads its installed
// checkpoint if there is one (info.Paged is nil otherwise), and checks
// the configuration against it.
func (d *DB) lockAndReadCheckpoint(cfg Config) (info wal.CheckpointInfo, err error) {
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return info, fmt.Errorf("db: create %s: %w", cfg.Dir, err)
	}
	if d.dirLock, err = lockDir(cfg.Dir); err != nil {
		return info, err
	}
	info, found, err := wal.ReadCheckpoint(cfg.Dir)
	if err != nil || !found {
		return info, err
	}
	if cfg.Shards != 1 && cfg.Shards != info.Shards {
		return info, fmt.Errorf("db: %s has %d shards, config asks for %d",
			cfg.Dir, info.Shards, cfg.Shards)
	}
	return info, checkExtractors(info.Secondaries, cfg.Secondaries)
}

// openFileDevices opens the burn and page files in cfg.Dir behind a
// writeback pool: reattached at the boundary meta describes — verifying
// and clipping the WORM tail past the boundary, replaying a matching
// rollback journal — or, with no installed checkpoint (meta nil), created
// empty: whatever device files exist then are the remains of an open
// that crashed before its first checkpoint, and nothing in them was ever
// acknowledged. The burn file goes first: a directory it refuses
// (pagestore.ErrRetiredJournal) is left exactly as it was found.
func (d *DB) openFileDevices(cfg Config, meta *wal.PagedMeta) (err error) {
	pagePath, burnPath := pagestore.Paths(cfg.Dir)
	pageCfg := pagestore.Config{Path: pagePath, PageSize: cfg.PageSize, Wrap: cfg.blockWrap}
	burnCfg := pagestore.BurnConfig{Path: burnPath, SectorSize: cfg.SectorSize, Wrap: cfg.blockWrap}
	if meta == nil {
		if d.bf, err = pagestore.CreateBurn(burnCfg); err != nil {
			return err
		}
		if d.pf, err = pagestore.Create(pageCfg); err != nil {
			return err
		}
	} else {
		pageCfg.PageSize, burnCfg.SectorSize = meta.PageSize, meta.SectorSize
		var rep pagestore.ReopenReport
		if d.bf, rep, err = pagestore.OpenBurn(burnCfg, meta.Burned, meta.WormStats); err != nil {
			return err
		}
		if d.pf, err = pagestore.Open(pageCfg, meta.Alloc, meta.MagStats, meta.Epoch); err != nil {
			return err
		}
		d.epoch = meta.Epoch
		// Dead-burn accounting survives the reopen, and the clipped tail's
		// orphans (burns acknowledged by no checkpoint) join it: both are
		// write-once payload nothing references, permanent waste.
		d.deadBytes.Store(meta.DeadBytes + rep.OrphanPayloadBytes)
	}
	d.mag, d.worm = d.pf, d.bf
	d.pool = buffer.NewWritebackPool(d.pf, cfg.BufferPages)
	return nil
}

// checkExtractors verifies the supplied extraction functions exactly
// cover the secondary indexes a checkpoint names.
func checkExtractors(names []string, extracts map[string]SecondaryExtract) error {
	if len(extracts) != len(names) {
		return fmt.Errorf("db: directory has %d secondary indexes, %d extractors supplied",
			len(names), len(extracts))
	}
	for _, name := range names {
		if _, ok := extracts[name]; !ok {
			return fmt.Errorf("db: no extractor supplied for secondary index %q", name)
		}
	}
	return nil
}

// recoverTo brings the reattached trees up to the acknowledged state: it
// erases the pending versions the checkpointed pages may hold, then
// replays every WAL segment past the checkpoint boundary. A checkpoint
// is fuzzy — shard i's image was captured at GroupLSNs[i] and the
// secondary indexes at SecLSN (>= every group LSN, they are captured
// last), all >= the header LSN the replay starts from — so each version
// applies to its primary shard only past that shard's boundary, and a
// record drives the secondary indexes only past SecLSN: exactly once per
// tree. With no installed checkpoint every boundary is zero and
// everything applies. It returns the last intact LSN and the segment
// number a fresh log should start at.
func (d *DB) recoverTo(info wal.CheckpointInfo) (lastLSN, nextSeg uint64, err error) {
	group := make([]uint64, len(d.store.shards))
	secLSN := uint64(0)
	if m := info.Paged; m != nil {
		group, secLSN = m.GroupLSNs, m.SecLSN
		// The transactions in flight at the boundary died with the
		// crash; a committed one re-arrives from its log frame. The
		// list is exactly the pending versions the images hold, so one
		// that is missing means the checkpoint does not match its pages.
		for _, p := range m.Pending {
			if err := d.store.AbortKey(p.Key, p.TxnID); err != nil {
				return 0, 0, fmt.Errorf("db: erasing boundary pending version of %s: %w", p.Key, err)
			}
		}
	}
	segs, err := wal.Segments(d.dir)
	if err != nil {
		return 0, 0, err
	}
	nextSeg = 1
	last := info.LSN
	for _, seg := range segs {
		if seg.Index >= nextSeg {
			nextSeg = seg.Index + 1
		}
		segLast, _, err := wal.ReplayFile(seg.Path, last, func(lsn uint64, rec txn.CommitRecord) error {
			if lsn != last+1 {
				return fmt.Errorf("db: recovery gap: LSN %d follows %d (missing segment?)", lsn, last)
			}
			last = lsn
			return d.replayCommit(lsn, rec, group, secLSN)
		})
		if err != nil {
			return 0, 0, err
		}
		if segLast > last {
			// Frames past `last` were skipped as <= the boundary; keep
			// the larger of the two as the resume point.
			last = segLast
		}
	}
	return last, nextSeg, nil
}

// replayCommit redoes one logged transaction, filtered by the fuzzy
// capture boundaries: group[i] is shard i's, secLSN the secondaries'.
// Records replay in LSN order, so commit times never decrease globally,
// as the secondary trees (each spanning all shards) require.
func (d *DB) replayCommit(lsn uint64, rec txn.CommitRecord, group []uint64, secLSN uint64) error {
	for _, v := range rec.Versions {
		if lsn <= group[record.ShardOfKey(v.Key, len(group))] {
			// The shard's image was captured past this record: the
			// version is already in it.
			continue
		}
		if err := d.store.Insert(v); err != nil {
			return fmt.Errorf("db: replay of txn %d at %s: %w", rec.TxnID, rec.Time, err)
		}
	}
	// Past SecLSN the indexes have not seen the record. SecLSN >= every
	// group LSN, so every shard holds the record by now, exactly as the
	// commit hook finds the store live.
	if lsn > secLSN && len(d.secondaries) > 0 {
		if err := d.onCommit(rec); err != nil {
			return fmt.Errorf("db: replay of txn %d at %s: secondary indexes: %w", rec.TxnID, rec.Time, err)
		}
	}
	return nil
}

// secondaryNames returns the registered secondary-index names, sorted.
func (d *DB) secondaryNames() []string {
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	names := make([]string, 0, len(d.secondaries))
	for name := range d.secondaries {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Checkpoint takes an incremental checkpoint of a durable database and
// truncates the log, without stopping writers: dirty pages are flushed,
// each shard's boundary is captured under a brief pause of commit
// posting plus that shard's read latch, and old segments are deleted
// once the checkpoint file is durably installed. Concurrent checkpoints
// serialize.
func (d *DB) Checkpoint() error {
	if d.wal == nil {
		return fmt.Errorf("db: Checkpoint requires a durable database (Config.Dir)")
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if d.closed {
		return ErrClosed
	}
	return d.checkpointLocked()
}

// checkpointLocked runs one checkpoint — caller holds cpMu — and, once
// it completes, observes its pause (the sum of its quiesce windows).
func (d *DB) checkpointLocked() error {
	sp := d.events.StartSpan("checkpoint", &d.cpHist)
	var pause time.Duration
	if err := d.flushAndInstall(&pause); err != nil {
		sp.End("error: " + err.Error())
		return err
	}
	d.cpPause.Observe(pause)
	sp.End(fmt.Sprintf("pause=%s", pause))
	return nil
}

// quiesceTimed is tm.Quiesce that adds the commit-posting stall it
// inflicts on writers to *pause.
//
//tsb:wraps commit-token
func (d *DB) quiesceTimed(pause *time.Duration, fn func() error) error {
	start := time.Now()
	err := d.tm.Quiesce(fn)
	*pause += time.Since(start)
	return err
}

// Close stops the maintenance loop, takes a final checkpoint unless a
// background one failed (then it returns that sticky error instead), and
// closes the log, the device files and the directory lock either way.
// The loop stops first, so a pass racing Close finishes or finds the
// database closed: no deadlock, no error. Closing an in-memory database
// only marks it closed.
//
//tsb:sticky
func (d *DB) Close() error {
	d.cpMu.Lock()
	if d.closed {
		d.cpMu.Unlock()
		return nil
	}
	d.closed = true
	d.cpMu.Unlock()
	if d.stopCp != nil {
		close(d.stopCp)
		d.cpDone.Wait()
	}
	d.cpMu.Lock()
	err := d.cpErr
	if err == nil && d.wal != nil {
		err = d.checkpointLocked()
	}
	d.cpMu.Unlock()
	if rerr := d.releaseFiles(); rerr != nil && err == nil {
		err = rerr
	}
	return err
}

// releaseFiles closes the log, the device files and the directory lock
// — whichever of them are open — and returns the log's close error.
// Acknowledged commits are durable in the WAL regardless; the device
// files hold at most the last checkpoint boundary plus burns, and
// reopening reconciles them, so closing them only releases fds. Closing
// the lock's fd releases the flock: the directory may be reopened by
// anyone.
func (d *DB) releaseFiles() error {
	var err error
	if d.wal != nil {
		err = d.wal.Close()
	}
	if d.pf != nil {
		_ = d.pf.Close()
	}
	if d.bf != nil {
		_ = d.bf.Close()
	}
	if d.dirLock != nil {
		_ = d.dirLock.Close()
	}
	return err
}

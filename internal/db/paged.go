package db

// The checkpoint of a durable database: the devices are disk files
// (internal/pagestore), so a checkpoint flushes dirty pages and installs
// the metadata that reattaches the engine to them.
//
// The protocol, precisely:
//
//   - Between checkpoints the device files are never written, with one
//     exception: WORM burns append immediately (write-once media has no
//     in-place state to protect) but only become trusted once a
//     checkpoint fsyncs them. Magnetic page writes buffer in the pool's
//     dirty-page table (no-steal: dirty pages are never evicted), so
//     the page file always reconstructs to the last installed
//     checkpoint boundary.
//
//   - A checkpoint first pre-flushes the dirty-page table with commits
//     running, which shrinks what the boundary must capture. Then it
//     takes the boundary in ONE hold of the commit token: it rotates
//     the WAL — the rotation LSN is the checkpoint's LSN — and, under
//     every shard's read latch (in shard order), captures every tree
//     image, the pending versions (the in-flight transactions' write
//     locks), the remaining dirty pages (shared buffers, no copies), the
//     clock, the page allocator, the WORM burned count and the dead-burn
//     bytes. The token stops commit posting and index writes, the read
//     latches stop pending inserts and splits, so every tree and both
//     devices are at that one LSN: replay applies every record past it
//     to every tree, unfiltered, exactly once.
//
//   - The captured pages are flushed, both files fsynced, and the
//     checkpoint metadata durably installed (tmp + fsync + rename).
//     Every page overwritten by a flush had its old contents appended
//     to the page file's rollback journal (and fsynced) first, so a
//     crash anywhere in the flush restores the previous boundary image
//     and the not-yet-truncated WAL tail still replays exactly once.
//     After the install, the journal is retired and old segments are
//     deleted.
//
//   - Recovery (Open, durable.go) reopens the device files — replaying
//     a matching rollback journal, verifying page CRCs as pages are
//     read, and verifying + clipping the WORM tail past the boundary —
//     reattaches the trees from their checkpointed images, erases the
//     pending versions of the transactions in flight at the boundary
//     (they died with the crash, and a page image cannot filter them
//     out), and replays the WAL tail past the boundary LSN. Orphaned
//     intact burns stay as burned waste, exactly as unacknowledged
//     burns on write-once media would.

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/wal"
)

// flushPages writes one captured batch of dirty pages through the page
// file's journal protocol and retires the untouched ones from the
// dirty-page table.
func (d *DB) flushPages(copies []buffer.DirtyPage) error {
	if len(copies) == 0 {
		return nil
	}
	pages := make([]uint64, len(copies))
	datas := make([][]byte, len(copies))
	for i, cp := range copies {
		pages[i] = cp.Page
		datas[i] = cp.Data
	}
	if err := d.pf.WriteBatch(pages, datas); err != nil {
		return err
	}
	d.pool.MarkClean(copies)
	return nil
}

// flushAndInstall is the body of a checkpoint, called under cpMu. Its
// cost is O(dirty pages), independent of database size: only the
// dirty-page table is flushed and a metadata-only checkpoint installed.
// See the protocol at the top of this file. pause is the commit-posting
// stall the boundary capture inflicted on writers.
func (d *DB) flushAndInstall() (pause time.Duration, err error) {
	// Pre-flush with commits running. Pages this races with keep a
	// moved write epoch, so they stay dirty for the boundary capture.
	if err := d.flushPages(d.pool.CaptureDirty()); err != nil {
		return 0, err
	}

	meta := wal.PagedMeta{
		Epoch:      d.epoch + 1,
		PageSize:   d.pf.PageSize(),
		SectorSize: d.bf.SectorSize(),
	}
	info := wal.CheckpointInfo{Shards: len(d.store.shards), Paged: &meta}
	var copies []buffer.DirtyPage
	start := time.Now()
	err = d.tm.Quiesce(func() error {
		lsn, err := d.wal.Rotate()
		if err != nil {
			return err
		}
		info.LSN = lsn
		for _, sh := range d.store.shards { // in shard order
			sh.mu.RLock()
			defer sh.mu.RUnlock()
		}
		for _, sh := range d.store.shards {
			img, err := sh.tree.Image()
			if err != nil {
				return err
			}
			meta.Shards = append(meta.Shards, img)
			// Exactly the pending versions the image holds: if this
			// boundary is ever recovered their transactions are dead,
			// and recovery erases them (see recoverTo).
			meta.Pending = append(meta.Pending, sh.tree.PendingWrites()...)
		}
		meta.Secondaries = make(map[string]core.TreeImage)
		for _, s := range d.indexes() { // written only under the token
			img, err := s.tree.Image()
			if err != nil {
				return err
			}
			meta.Secondaries[s.name] = img
		}
		copies = d.pool.CaptureDirty()
		info.Clock = d.tm.Now()
		meta.Alloc = d.pf.AllocState()
		meta.MagStats = d.pf.Stats()
		meta.Burned = d.bf.Burned()
		meta.WormStats = d.bf.Stats()
		meta.DeadBytes = d.deadBytes.Load()
		return nil
	})
	if pause = time.Since(start); err != nil {
		return pause, err
	}

	if err := d.flushPages(copies); err != nil {
		return pause, err
	}
	if err := d.pf.Sync(); err != nil {
		return pause, err
	}
	if err := d.bf.Sync(); err != nil {
		return pause, err
	}
	if err := wal.WriteCheckpoint(d.dir, d.logWrap, info); err != nil {
		return pause, err
	}
	// The rename landed: the installed boundary IS meta.Epoch from here
	// on, whatever later steps return — record it before anything can
	// fail, or the next checkpoint would reuse the epoch.
	d.epoch = meta.Epoch
	// Retire the rollback journal and advance the restore point, then
	// truncate the log.
	if err := d.pf.CompleteFlush(meta.Epoch, meta.Alloc.Pages); err != nil {
		return pause, err
	}
	return pause, d.wal.MarkCheckpoint()
}

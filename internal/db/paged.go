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
//   - A checkpoint pre-flushes dirty pages flush-group by flush-group
//     (one group per shard, one for the secondary indexes) without any
//     pause, then captures the boundary FUZZILY, one flush group at a
//     time: the WAL is rotated under the commit token alone, and then
//     each shard is captured under the token plus that ONE shard's read
//     latch — its boundary LSN (meta GroupLSNs[i]), its tree image, its
//     dirty pages (memory copies only), and its pending versions (its
//     write locks). The secondary indexes are captured last, the same
//     way, under the secondary latch (SecLSN), together with the page
//     allocator and the WORM burned count. No instant quiesces the
//     whole database: the pause a writer can observe is one shard's
//     capture, not all of them. Replay compensates for the skew — a
//     logged version applies to its primary shard only past that
//     shard's GroupLSN, and to the secondaries only past SecLSN — so
//     reload + tail replay stays exactly-once per tree. The skew
//     windows can leak bounded garbage on a crash (a page allocated, or
//     a run burned, after its tree's capture but before the allocator/
//     burned capture): allocated-but-unreferenced pages and dead burns,
//     never lost data. A dead burn stays burned, as on write-once media.
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
//     out), and replays the WAL tail past the boundary LSNs. Orphaned
//     intact burns stay as burned waste, exactly as unacknowledged
//     burns on write-once media would.

import (
	"time"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/record"
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
// The boundary capture is fuzzy — per flush group, never whole-database;
// see the protocol at the top of this file and the GroupLSNs/SecLSN
// fields of wal.PagedMeta.
func (d *DB) flushAndInstall(pause *time.Duration) error {
	// Fuzzy pre-flush, flush group by flush group (shards, then the
	// secondary indexes — captured in ONE pool walk), with commits
	// running: shrinks the set the boundary capture must copy. Pages
	// this pass races with are simply re-captured at the boundary (the
	// write epoch moved, so they stay dirty).
	groups := d.pool.CaptureDirtyGroups()
	for tag := 0; tag <= d.secTag; tag++ {
		if err := d.flushPages(groups[tag]); err != nil {
			return err
		}
	}
	if err := d.flushPages(groups[buffer.NoTag]); err != nil {
		return err
	}

	nShards := len(d.store.shards)
	meta := wal.PagedMeta{
		Epoch:      d.epoch + 1,
		PageSize:   d.pf.PageSize(),
		SectorSize: d.bf.SectorSize(),
		GroupLSNs:  make([]uint64, nShards),
		Shards:     make([]core.TreeImage, nShards),
	}

	// Rotate first, under the token alone: every group LSN captured
	// below is >= the rotation point, so the rotation LSN is the
	// checkpoint header's LSN (segment retention, replay start) while
	// the per-group LSNs make replay exactly-once per tree.
	var boundary uint64
	err := d.quiesceTimed(pause, func() error {
		lsn, err := d.wal.Rotate()
		boundary = lsn
		return err
	})
	if err != nil {
		return err
	}

	// Capture shard by shard: the token stops commit posting (so the
	// group LSN is posting-exact — appended implies fully in the store),
	// and this ONE shard's read latch stops its in-flight transactions'
	// pending inserts. Writers of every other shard run free; any page
	// they re-dirty is detected by its write epoch and stays dirty. The
	// flush I/O runs after the latch is released. The group LSN is read
	// before the latch (level 4 may not nest in 5); the token holds it.
	for i := range d.store.shards {
		i, sh := i, d.store.shards[i]
		var copies []buffer.DirtyPage
		err := d.quiesceTimed(pause, func() error {
			meta.GroupLSNs[i] = d.wal.LastLSN()
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			meta.Shards[i] = sh.tree.Image()
			copies = d.pool.CaptureDirty(i)
			// This shard's pending versions, exactly the ones its image
			// holds at this instant: if this boundary is ever recovered
			// their transactions are dead and recovery erases them (see
			// recoverTo). One committed after this instant is past
			// GroupLSNs[i]: erased, then replayed.
			meta.Pending = append(meta.Pending, sh.tree.PendingWrites()...)
			return nil
		})
		if err != nil {
			return err
		}
		if err := d.flushPages(copies); err != nil {
			return err
		}
	}

	// The secondary indexes are captured last — SecLSN >= every group
	// LSN, which replay relies on — together with everything whose
	// capture must not precede any tree image: the page allocator (a
	// page referenced by an image must be allocated in it) and the WORM
	// burned count (a run referenced by an image must be below it).
	// Captures after an image but before this instant leak at most
	// bounded garbage on a crash: an allocated-but-unreferenced page, a
	// dead burn that stays burned — never data.
	var clock record.Timestamp
	var copies []buffer.DirtyPage
	err = d.quiesceTimed(pause, func() error {
		meta.SecLSN = d.wal.LastLSN()
		d.secMu.RLock()
		defer d.secMu.RUnlock()
		meta.Secondaries = make(map[string]core.TreeImage)
		for name, s := range d.secondaries {
			meta.Secondaries[name] = s.index.Image()
		}
		// Exact-tag captures: shard pages re-dirtied since their own
		// group's boundary must stay dirty for the NEXT checkpoint —
		// flushing them here would install commits past their shard's
		// GroupLSN, which replay then re-applies (duplicates).
		copies = d.pool.CaptureDirty(d.secTag)
		copies = append(copies, d.pool.CaptureDirty(buffer.NoTag)...)
		clock = d.tm.Now()
		meta.Alloc = d.pf.AllocState()
		meta.MagStats = d.pf.Stats()
		meta.Burned = d.bf.Burned()
		meta.WormStats = d.bf.Stats()
		meta.DeadBytes = d.deadBytes.Load()
		return nil
	})
	if err != nil {
		return err
	}

	if err := d.flushPages(copies); err != nil {
		return err
	}
	if err := d.pf.Sync(); err != nil {
		return err
	}
	if err := d.bf.Sync(); err != nil {
		return err
	}
	info := wal.CheckpointInfo{
		Shards:      len(d.store.shards),
		Clock:       clock,
		LSN:         boundary,
		Secondaries: d.secondaryNames(),
		Paged:       &meta,
	}
	if err := wal.WriteCheckpoint(d.dir, d.logWrap, info); err != nil {
		return err
	}
	// The rename landed: the installed boundary IS meta.Epoch from here
	// on, whatever later steps return — record it before anything can
	// fail, or the next checkpoint would reuse the epoch.
	d.epoch = meta.Epoch
	// Retire the rollback journal and advance the restore point, then
	// truncate the log.
	if err := d.pf.CompleteFlush(meta.Epoch, meta.Alloc.Pages); err != nil {
		return err
	}
	return d.wal.MarkCheckpoint()
}

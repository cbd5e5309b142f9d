package db

// The maintenance scheduler: background upkeep that keeps an aging
// database young. The background migrator (migrator.go) established the
// pattern — a worker fenced around checkpoint boundaries, races
// resolved by epoch/re-verify checks, lost races degraded to bounded
// waste instead of corruption. This file generalizes it to the
// database-wide maintenance economy, three job families in all:
//
//   - deferred time splits (leaf AND index nodes): owned by the
//     per-shard migrator workers; the scheduler's role is the shared
//     fence (pause/resume) every other job uses around its own
//     critical windows.
//   - the fuzzy checkpoint flush (paged.go, flushAndInstall): triggered
//     here on WAL growth, capturing the boundary one flush group at a
//     time so the writer-visible pause is one shard's capture.
//   - WORM compaction (DB.Compact, below): triggered here once the
//     dead-burn payload (Stats().Device.DeadBytes) passes
//     Config.CompactDeadBytes.
//
// One scheduler goroutine polls the job triggers. Jobs serialize under
// cpMu — a compaction ends by installing a checkpoint, so the two can
// never overlap — and any job error is sticky (surfaced by Close) and
// stops the scheduler: a misbehaving device is not retried against.
//
// # Why write-once media can be compacted at all
//
// Write-once sectors cannot be rewritten in place, but the tail of the
// burn FILE can be rewritten as a whole — the real-world analogue is
// migrating live runs to a fresh platter and retiring the old one; the
// file is the platter library. What makes it safe:
//
//   - the live-run set is closed: every run reachable from any tree
//     root (primaries and secondaries share one burn file). Runs
//     outside it — abandoned migrations, crash orphans — are dead
//     forever: under the non-deletion policy references are only ever
//     copied, never invented, so an unreachable run cannot become
//     reachable again.
//   - historical nodes reference only earlier burns (children are
//     burned before the parents that point at them), so relocating the
//     live tail in ascending offset order sees every child remapped
//     before its parent is re-encoded — and relocated offsets only
//     shrink, so re-encoded runs (uvarint addresses) never grow and
//     the copy-forward never clobbers an unread run.
//   - crash safety is the page file's rollback protocol transplanted:
//     the old region is journaled and fsynced before the rewrite, the
//     journal is stamped with the installed checkpoint epoch, and it is
//     retired only after the compaction's own checkpoint installs. A
//     crash before that checkpoint restores the old region; after, the
//     journal's epoch no longer matches and it is discarded.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/storage"
)

// maintenancePollInterval is how often the scheduler inspects the job
// triggers.
const maintenancePollInterval = 100 * time.Millisecond

// CheckpointStats is the checkpoint pause accounting (Stats().Checkpoint):
// how long commit posting was quiesced for boundary captures. Pauses are
// summed over a checkpoint's quiesce windows — the fuzzy paged capture
// takes several short ones instead of one global one, and this is the
// measurement showing the difference.
type CheckpointStats struct {
	// Checkpoints counts completed checkpoints (all modes).
	Checkpoints uint64
	// PauseNanos is the cumulative commit-posting pause across all
	// checkpoints; LastPauseNanos and MaxPauseNanos describe single
	// checkpoints.
	PauseNanos     uint64
	LastPauseNanos uint64
	MaxPauseNanos  uint64
}

// CompactionStats is the WORM compaction accounting (Stats().Compaction).
type CompactionStats struct {
	// Rounds counts completed compactions; Aborted counts rounds that
	// found the burn tail moved under them (a concurrent inline burn)
	// and gave up without changing anything — retried on a later
	// trigger.
	Rounds  uint64
	Aborted uint64
	// RunsMoved / MovedBytes are the live tail runs copied forward
	// across all rounds; ReclaimedBytes is the device capacity
	// truncated away.
	RunsMoved      uint64
	MovedBytes     uint64
	ReclaimedBytes uint64
	// PauseNanos is cumulative time the install window held every
	// shard's write latch (address rewrite + tail re-check; the
	// copy-forward itself runs with no latch held).
	PauseNanos uint64
}

// CompactionReport describes one DB.Compact call.
type CompactionReport struct {
	// Attempted is false when the device had no reclaimable tail (the
	// burn file is fully live up to its end): nothing was done.
	Attempted bool
	// Aborted means the install re-check found a concurrent burn had
	// moved the tail; nothing was changed. Retry when quiet.
	Aborted bool
	// Boundary is the first relocated sector; RunsMoved/MovedBytes the
	// live runs copied forward; ReclaimedBytes the device capacity the
	// truncate returned.
	Boundary       uint64
	RunsMoved      int
	MovedBytes     uint64
	ReclaimedBytes uint64
}

// maintJob is one scheduler entry: a cheap trigger probe and the job.
type maintJob struct {
	name string
	due  func() bool
	run  func() error
}

// maintenanceJobs assembles the scheduler's job table.
func (d *DB) maintenanceJobs() []maintJob {
	jobs := []maintJob{{
		name: "checkpoint",
		due: func() bool {
			if d.cpEvery <= 0 {
				return false
			}
			// The log anchors the gauge itself (MarkCheckpoint under
			// the wal mutex), so the probe needs no cpMu.
			return int64(d.wal.Stats().BacklogBytes) >= d.cpEvery
		},
		run: d.Checkpoint,
	}}
	if d.coEvery > 0 {
		jobs = append(jobs, maintJob{
			name: "compact",
			due:  func() bool { return int64(d.deadBytes.Load()) >= d.coEvery },
			run: func() error {
				_, err := d.Compact()
				return err
			},
		})
	}
	return jobs
}

// maintenanceLoop is the scheduler goroutine: poll the job triggers, run
// what is due. A job error is sticky (surfaced by Close) and stops the
// loop — the WAL simply grows and waste simply accumulates until an
// operator intervenes, which is strictly safer than retrying against a
// misbehaving device.
func (d *DB) maintenanceLoop() {
	defer d.cpDone.Done()
	jobs := d.maintenanceJobs()
	ticker := time.NewTicker(maintenancePollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopCp:
			return
		case <-ticker.C:
			for _, job := range jobs {
				if !job.due() {
					continue
				}
				if err := job.run(); err != nil {
					d.cpMu.Lock()
					if d.cpErr == nil {
						d.cpErr = fmt.Errorf("db: background %s: %w", job.name, err)
					}
					d.cpMu.Unlock()
					return
				}
			}
		}
	}
}

// Compact reclaims dead write-once capacity on a durable database: runs
// that nothing references — abandoned background migrations, post-crash
// orphans — are squeezed out of the burn file by copying the live tail
// forward and truncating the rest. Four phases:
//
//  1. capture, under each tree's read latch in turn: the burned-sector
//     count and the device-wide live-run set (every run reachable from
//     any root, deduped across the rule-4 reference DAG);
//  2. plan, no latches: the boundary is the first dead sector, and every
//     live run past it is read and re-encoded with relocated child
//     addresses (ascending offset order — children precede parents);
//  3. install, under every write latch: re-check the burned count (a
//     concurrent inline burn aborts the round untouched), journal and
//     rewrite the region (pagestore.CompactRegion), patch the relocated
//     addresses in every magnetic node, zero the dead-byte account;
//  4. seal: a checkpoint records the new boundary and the patched pages,
//     then the compaction journal is retired. A crash before the seal
//     restores the old region on reopen; after it, the compacted state
//     IS the installed boundary.
//
// The logical content is untouched — only addresses move — and
// Stats().Device shows WastedBytes/SpaceO drop by what was reclaimed.
// Compact serializes with checkpoints; the migrator is fenced for the
// duration. Concurrent writers run freely except during phases 1 and 3.
func (d *DB) Compact() (CompactionReport, error) {
	var rep CompactionReport
	if d.bf == nil {
		return rep, fmt.Errorf("db: Compact requires a durable database (Config.Dir)")
	}
	d.cpMu.Lock()
	defer d.cpMu.Unlock()
	if d.closed {
		return rep, ErrClosed
	}
	// Fence the migrator: no background burn moves the tail and no swap
	// rewrites pages while the live set is walked and relocated. Inline
	// burns (physical-headroom fallbacks, secondary-index splits) can
	// still happen — the install re-check catches them.
	d.mig.pause()
	defer d.mig.resume()
	sp := d.events.StartSpan("compact", &d.coHist)
	defer func() {
		sp.End(fmt.Sprintf("attempted=%t aborted=%t moved=%dB reclaimed=%dB",
			rep.Attempted, rep.Aborted, rep.MovedBytes, rep.ReclaimedBytes))
	}()

	// Phase 1 — the burned count first: runs burned during the walk land
	// at or past it, and any such burn flunks the install re-check.
	burned0 := d.bf.Burned()
	seen := make(map[uint64]storage.Addr)
	for i, sh := range d.store.shards {
		sh.mu.RLock()
		err := sh.tree.WormRefs(seen)
		sh.mu.RUnlock()
		if err != nil {
			return rep, fmt.Errorf("db: compaction walk of shard %d: %w", i, err)
		}
	}
	d.secMu.RLock()
	for name, s := range d.secondaries {
		if err := s.index.Tree().WormRefs(seen); err != nil {
			d.secMu.RUnlock()
			return rep, fmt.Errorf("db: compaction walk of secondary %q: %w", name, err)
		}
	}
	d.secMu.RUnlock()

	// Phase 2 — the boundary is the end of the contiguous live prefix:
	// the first sector no live run covers. Everything below it stays put;
	// every live run past it moves down.
	ss := uint64(d.bf.SectorSize())
	runSectors := func(n int) uint64 { return (uint64(n) + ss - 1) / ss }
	live := make([]storage.Addr, 0, len(seen))
	for _, a := range seen {
		if a.Off < burned0 {
			live = append(live, a)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Off < live[j].Off })
	boundary := uint64(0)
	tail := live
	for len(tail) > 0 && tail[0].Off == boundary {
		boundary += runSectors(int(tail[0].Len))
		tail = tail[1:]
	}
	if boundary >= burned0 {
		return rep, nil // fully live: nothing to reclaim
	}
	rep.Attempted = true
	rep.Boundary = boundary

	// Phase 3 (plan) — copy-forward plan with no latch held: the region
	// below burned0 is immutable (the migrator is fenced; inline burns
	// only append past it). Ascending old offset means every WORM child
	// of a run — burned before it, so at a smaller offset — is already
	// in the remap when the parent is re-encoded.
	remap := make(map[uint64]storage.Addr, len(tail))
	payloads := make([][]byte, 0, len(tail))
	next := boundary
	for _, a := range tail {
		data, err := d.bf.ReadAt(a)
		if err != nil {
			return rep, fmt.Errorf("db: compaction read of run %s: %w", a, err)
		}
		nd, err := core.RemapWormPayload(data, remap)
		if err != nil {
			return rep, fmt.Errorf("db: compaction remap of run %s: %w", a, err)
		}
		remap[a.Off] = storage.Addr{Kind: storage.KindWORM, Off: next, Len: uint32(len(nd))}
		payloads = append(payloads, nd)
		rep.MovedBytes += uint64(len(nd))
		next += runSectors(len(nd))
	}
	rep.RunsMoved = len(payloads)

	// Phase 3 (install) — every shard's write latch plus the secondary
	// latch: no reader or writer can observe the half-patched address
	// space. Only the re-check, the journaled region rewrite, and the
	// in-memory address patches happen under the latches.
	start := time.Now()
	for _, sh := range d.store.shards {
		sh.mu.Lock()
	}
	d.secMu.Lock()
	err := func() error {
		if d.bf.Burned() != burned0 {
			rep.Aborted = true
			return nil
		}
		//tsb:allow latchio -- the documented compaction install: the journaled region rewrite must be atomic against every reader, so it runs under all write latches
		addrs, err := d.bf.CompactRegion(d.epoch, boundary, payloads)
		if err != nil {
			return err
		}
		for k, a := range addrs {
			if want := remap[tail[k].Off]; a != want {
				return fmt.Errorf("relocated run %d landed at %s, want %s", k, a, want)
			}
		}
		for i, sh := range d.store.shards {
			if _, err := sh.tree.RewriteWormRefs(remap); err != nil {
				return fmt.Errorf("shard %d: %w", i, err)
			}
		}
		for name, s := range d.secondaries {
			if _, err := s.index.Tree().RewriteWormRefs(remap); err != nil {
				return fmt.Errorf("secondary %q: %w", name, err)
			}
		}
		// Every dead run sat past the boundary (by construction) and was
		// just squeezed out.
		d.deadBytes.Store(0)
		return nil
	}()
	d.secMu.Unlock()
	for _, sh := range d.store.shards {
		sh.mu.Unlock()
	}
	d.coPauseNanos.Add(uint64(time.Since(start)))
	if err != nil {
		// The device may hold the rewritten region while some in-memory
		// addresses are unpatched: this handle is compromised, but the
		// directory is not — the journal's epoch still matches, so a
		// reopen restores the pre-compaction boundary.
		return rep, fmt.Errorf("db: compaction install: %w", err)
	}
	if rep.Aborted {
		d.coAborted.Add(1)
		return rep, nil
	}
	rep.ReclaimedBytes = (burned0 - next) * ss

	// Phase 4 — seal. The checkpoint flushes the patched pages and
	// records the new burned boundary and device accounting; only once
	// it is durably installed is the rollback journal retired.
	if err := d.checkpointLocked(); err != nil {
		return rep, fmt.Errorf("db: compaction checkpoint: %w", err)
	}
	if err := d.bf.CompleteCompaction(); err != nil {
		return rep, err
	}
	d.coRounds.Add(1)
	d.coRunsMoved.Add(uint64(rep.RunsMoved))
	d.coMovedBytes.Add(rep.MovedBytes)
	d.coReclaimedBytes.Add(rep.ReclaimedBytes)
	return rep, nil
}

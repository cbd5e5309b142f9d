package db

// The maintenance loop: background upkeep that keeps an aging database
// young. It has one job, the fuzzy checkpoint flush (paged.go,
// flushAndInstall), triggered on WAL growth and capturing the boundary
// one flush group at a time so the writer-visible pause is one shard's
// capture. Time-split migration is not its job — it runs inline, inside
// each split (§3.4) — and dead WORM burns are not either: write-once
// waste is reported (Stats().Device), never reclaimed.
//
// A checkpoint error is sticky (surfaced by Close) and stops the loop: a
// misbehaving device is not retried against.

import (
	"fmt"
	"time"
)

// maintenancePollInterval is how often the loop inspects the checkpoint
// trigger.
const maintenancePollInterval = 100 * time.Millisecond

// MigratorStats is the time-split migration accounting (Stats().Migrator).
type MigratorStats struct {
	// SplitLatchNanos is cumulative time spent splitting nodes under
	// shard write latches, the inline WORM burns of time splits included
	// (summed from the shard trees).
	SplitLatchNanos uint64
	// Migrated, Abandoned and InlineFallbacks are always zero.
	//
	// Deprecated: they counted the retired background migrator.
	Migrated, Abandoned, InlineFallbacks uint64
}

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

// maintenanceLoop is the background goroutine: checkpoint whenever the
// WAL has grown by cpEvery bytes since the last one. A checkpoint error
// is sticky (surfaced by Close) and stops the loop — the WAL simply grows
// until an operator intervenes, which is strictly safer than retrying
// against a misbehaving device.
func (d *DB) maintenanceLoop() {
	defer d.cpDone.Done()
	ticker := time.NewTicker(maintenancePollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stopCp:
			return
		case <-ticker.C:
			// The log anchors the gauge itself (MarkCheckpoint under the
			// wal mutex), so the probe needs no cpMu.
			if int64(d.wal.Stats().BacklogBytes) < d.cpEvery {
				continue
			}
			if err := d.Checkpoint(); err != nil {
				d.cpMu.Lock()
				if d.cpErr == nil {
					d.cpErr = fmt.Errorf("db: background checkpoint: %w", err)
				}
				d.cpMu.Unlock()
				return
			}
		}
	}
}

package db

// The maintenance loop: background upkeep that keeps an aging database
// young. It has one job, the fuzzy checkpoint flush (paged.go,
// flushAndInstall), capturing the boundary one flush group at a time so
// the writer-visible pause is one shard's capture. Between the
// checkpoints Open and Close take, the log says when one is due
// (wal.Log.CheckpointDue); no clock is involved. Time-split migration is
// not its job — it runs inline, inside each split (§3.4) — and dead WORM
// burns are not either: write-once waste is reported, never reclaimed.
//
// A checkpoint error is sticky (surfaced by Close) and stops the loop: a
// misbehaving device is not retried against.

import (
	"errors"
	"fmt"
)

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
// a view over tsb_checkpoint_pause_seconds. A checkpoint's pause is the
// sum of its quiesce windows — the fuzzy paged capture takes several
// short ones instead of one global one, and this shows the difference.
type CheckpointStats struct {
	// Checkpoints counts completed checkpoints.
	Checkpoints uint64
	// PauseNanos is the cumulative commit-posting pause across them;
	// MaxPauseNanos is the longest single checkpoint's, to the
	// microsecond.
	PauseNanos    uint64
	MaxPauseNanos uint64
}

// maintenanceLoop is the background goroutine: checkpoint whenever the
// log says one is due. A checkpoint error is sticky (surfaced by Close)
// and stops the loop — the WAL simply grows until an operator
// intervenes, which is strictly safer than retrying against a
// misbehaving device. A closing database is not an error.
func (d *DB) maintenanceLoop() {
	defer d.cpDone.Done()
	for {
		select {
		case <-d.stopCp:
			return
		case <-d.wal.CheckpointDue():
			if err := d.Checkpoint(); err != nil {
				if !errors.Is(err, ErrClosed) {
					d.cpMu.Lock()
					d.cpErr = fmt.Errorf("db: background checkpoint: %w", err)
					d.cpMu.Unlock()
				}
				return
			}
		}
	}
}

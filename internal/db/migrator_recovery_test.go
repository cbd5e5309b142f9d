package db

// Kill-and-recover coverage for migration: crash a paged durable
// database while concurrent writers keep time splitting leaves and
// burning their historical halves, and demand the standard durability
// invariants — every acknowledged commit fully present, no phantom data,
// invariants intact, database writable. A crash may orphan a burned
// historical node whose referencing split never reached a checkpoint
// (write-once waste, exactly as a torn migration on real WORM media),
// but can never lose or duplicate a version.
//
// The CI recovery job runs these by name: go test -race -run Recovery ./...

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// TestRecoveryPagedMigratorConcurrentCrash is TestRecoveryPagedConcurrentCrash
// tuned for migration: concurrent writers produce a steady stream of
// time splits (updates to a small hot key set), background checkpoints
// run beside them, and the injected tear crashes the process at an
// arbitrary byte of the durable write stream — possibly mid-burn.
// Race-clean.
func TestRecoveryPagedMigratorConcurrentCrash(t *testing.T) {
	for _, tear := range []int64{2500, 9000, 22_000, 47_000} {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		cfg := pagedConfig(dir)
		cfg.Shards = 4
		cfg.CheckpointBytes = 2048
		d, err := Open(tearConfig(cfg, plan, true, true))
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue // tear fired inside the seal checkpoint
			}
			t.Fatal(err)
		}
		const workers = 4
		var mu sync.Mutex
		ackedVals := map[string]bool{}
		attempted := map[string]bool{}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					// A small hot key set per worker: repeated updates
					// build history fast, so time splits (and therefore
					// burns) fire continuously.
					k := fmt.Sprintf("w%d-key%02d", w, i%8)
					val := fmt.Sprintf("w%d-val%05d", w, i)
					mu.Lock()
					attempted[k+"="+val] = true
					mu.Unlock()
					err := d.Update(func(tx *txn.Txn) error {
						return tx.Put(record.StringKey(k), []byte(val))
					})
					if err != nil {
						return // crashed
					}
					mu.Lock()
					ackedVals[k+"="+val] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		migrated := d.Stats().Tree.LeafTimeSplits
		crash(d)

		recfg := pagedConfig(dir)
		recfg.Shards = 4
		re, err := Open(recfg)
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		all, err := fullHistory(re)
		if err != nil {
			t.Fatal(err)
		}
		recovered := map[string]bool{}
		for _, v := range all {
			recovered[string(v.Key)+"="+string(v.Value)] = true
		}
		for pair := range ackedVals {
			if !recovered[pair] {
				t.Fatalf("tear=%d: acknowledged %q lost (leaf time splits before crash: %d)", tear, pair, migrated)
			}
		}
		for pair := range recovered {
			if !attempted[pair] {
				t.Fatalf("tear=%d: recovered %q was never written", tear, pair)
			}
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants: %v", tear, err)
		}
		// The recovered database keeps splitting and migrating: write
		// through it and re-verify.
		for i := 0; i < 120; i++ {
			k := fmt.Sprintf("post-key%02d", i%6)
			if err := re.Update(func(tx *txn.Txn) error {
				return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("post-val%04d", i)))
			}); err != nil {
				t.Fatalf("tear=%d: write after recovery: %v", tear, err)
			}
		}
		if err := re.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants after post-recovery writes: %v", tear, err)
		}
		re.Close()
	}
}

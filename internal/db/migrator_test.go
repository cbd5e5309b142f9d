package db

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/txn"
)

// TestMigratorConcurrentStress hammers a migration-heavy database from
// concurrent writers and readers (race-clean under -race): time splits
// burn their historical halves inline while snapshot cursors stream.
// Every acknowledged update must be reachable afterwards and the
// workload must actually have migrated history.
func TestMigratorConcurrentStress(t *testing.T) {
	d, err := Open(Config{Shards: 4, LeafCapacity: 512, IndexCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const workers = 4
	const opsPerWorker = 300
	acked := make([]map[string]string, workers)
	var wg sync.WaitGroup
	errCh := make(chan error, workers*2)
	for w := 0; w < workers; w++ {
		acked[w] = map[string]string{}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < opsPerWorker; i++ {
				// Disjoint per-worker keys: no lock conflicts, every
				// update must be acknowledged and survive.
				k := fmt.Sprintf("w%d-key%02d", w, rng.Intn(12))
				v := fmt.Sprintf("val-%d-%d", w, i)
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(record.StringKey(k), []byte(v))
				})
				if err != nil {
					errCh <- fmt.Errorf("worker %d: %w", w, err)
					return
				}
				acked[w][k] = v
			}
		}(w)
	}
	// Concurrent readers streaming snapshots while splits burn.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				cur := d.Cursor(nil, record.InfiniteBound(), ScanOptions{})
				for cur.Next() {
				}
				if err := cur.Err(); err != nil {
					errCh <- fmt.Errorf("reader: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Tree.LeafTimeSplits == 0 || st.WORM.SectorsBurned == 0 {
		t.Fatalf("concurrent stress migrated nothing: %d leaf time splits, %d sectors burned",
			st.Tree.LeafTimeSplits, st.WORM.SectorsBurned)
	}
	for w := 0; w < workers; w++ {
		for k, v := range acked[w] {
			got, ok, err := d.Get(record.StringKey(k))
			if err != nil {
				t.Fatal(err)
			}
			if !ok || string(got.Value) != v {
				t.Fatalf("key %s = %q, want %q (ok=%v)", k, got.Value, v, ok)
			}
		}
	}
}

// TestMigratorDurableCheckpointReopen migrates history on a durable
// database with checkpoints taken mid-stream, closes, and reopens: the
// recovered database must hold exactly the acknowledged updates and
// every key's history.
func TestMigratorDurableCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024,
	}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for i := 0; i < 400; i++ {
		k := fmt.Sprintf("key%02d", i%16)
		v := fmt.Sprintf("val%d", i)
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey(k), []byte(v))
		}); err != nil {
			t.Fatal(err)
		}
		want[k] = v
		if i%100 == 99 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.Stats(); st.Tree.LeafTimeSplits == 0 || st.WORM.SectorsBurned == 0 {
		t.Fatalf("workload migrated nothing: %d leaf time splits, %d sectors burned",
			st.Tree.LeafTimeSplits, st.WORM.SectorsBurned)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		got, ok, err := re.Get(record.StringKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if !ok || string(got.Value) != v {
			t.Fatalf("after reopen, key %s = %q, want %q (ok=%v)", k, got.Value, v, ok)
		}
		h, err := re.History(record.StringKey(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(h) == 0 {
			t.Fatalf("after reopen, key %s lost its history", k)
		}
	}
}

// TestMigratorStatsSurface checks the migration accounting: the
// split-latch clock ticks once time splits have burned history, and the
// deprecated background-migrator counters stay zero.
func TestMigratorStatsSurface(t *testing.T) {
	d, err := Open(Config{LeafCapacity: 512, IndexCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("key%02d", i%8)
		if err := d.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("stats-payload-%04d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.Tree.LeafTimeSplits == 0 {
		t.Fatal("no time splits recorded in tree stats")
	}
	if st.Migrator.SplitLatchNanos == 0 {
		t.Fatal("zero split-latch time despite splits")
	}
	if m := st.Migrator; m.Migrated != 0 || m.Abandoned != 0 || m.InlineFallbacks != 0 {
		t.Fatalf("deprecated migrator counters moved: %+v", m)
	}
}

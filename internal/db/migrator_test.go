package db

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// dbImage is the whole state of an in-memory database — both devices'
// counters and contents, every tree image, the clock: the reference two
// databases are compared on when they must be byte-identical.
type dbImage struct {
	MagStats    storage.MagneticStats
	Pages       [][]byte // nil = never written or freed
	WORMStats   storage.WORMStats
	Sectors     [][]byte
	Shards      []core.TreeImage
	Secondaries map[string]core.TreeImage
	Clock       record.Timestamp
}

// imageOf captures d's image. d must be in memory and idle. The
// counters are snapshotted before the contents are read back, so the
// reads the capture itself issues do not show in the image.
func imageOf(t *testing.T, d *DB) dbImage {
	t.Helper()
	mag, worm := d.mag.(*storage.MagneticDisk), d.worm.(*storage.WORMDisk)
	img := dbImage{
		MagStats:    mag.Stats(),
		WORMStats:   worm.Stats(),
		Secondaries: map[string]core.TreeImage{},
		Clock:       d.Now(),
	}
	// Every page slot was handed out by a fresh Alloc, so Allocs bounds
	// the slot count; the engine burns by Append only, so the burned
	// sectors are exactly 0..SectorsBurned.
	for p := uint64(0); p < img.MagStats.Allocs; p++ {
		data, _ := mag.Read(p)
		img.Pages = append(img.Pages, data)
	}
	for s := uint64(0); s < img.WORMStats.SectorsBurned; s++ {
		data, err := worm.ReadSector(s)
		if err != nil {
			t.Fatalf("burned sector %d: %v", s, err)
		}
		img.Sectors = append(img.Sectors, data)
	}
	for i := 0; i < d.Shards(); i++ {
		if err := d.WithShardTree(i, func(tree *core.Tree) error {
			img.Shards = append(img.Shards, tree.Image())
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d.secMu.RLock()
	defer d.secMu.RUnlock()
	for name, s := range d.secondaries {
		img.Secondaries[name] = s.index.Image()
	}
	return img
}

// applyShardOpsDrained applies ops one at a time, draining the background
// migration queue after every operation — the serialized discipline under
// which a background-migrated database must be byte-identical to an
// inline-split one (each deferred split applies exactly where the inline
// split would have happened).
func applyShardOpsDrained(t *testing.T, d *DB, ops []shardOp) {
	t.Helper()
	for i, op := range ops {
		err := d.Update(func(tx *txn.Txn) error {
			var err error
			if op.delete {
				err = tx.Delete(op.key)
			} else {
				err = tx.Put(op.key, op.value)
			}
			if err != nil {
				return err
			}
			if op.abort {
				return fmt.Errorf("deliberate abort")
			}
			return nil
		})
		if op.abort {
			if err == nil {
				t.Fatalf("op %d: abort did not propagate", i)
			}
		} else if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if err := d.DrainMigrations(); err != nil {
			t.Fatalf("op %d: drain: %v", i, err)
		}
	}
}

// collectCursor drains a cursor into a slice, failing the test on error.
func collectCursor(t *testing.T, c *Cursor) []record.Version {
	t.Helper()
	out, err := c.Collect()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMigratorEquivalenceProperty is the background-migration property
// test: a multi-shard database running the background migrator (drained
// after each operation) must be byte-identical — the full image: device
// contents, tree metadata, stats, clock — to an inline-split database
// given the same operation sequence, and must answer forward, reverse,
// and limit/paginated scans identically.
func TestMigratorEquivalenceProperty(t *testing.T) {
	for _, shards := range []int{1, 3, 8} {
		for _, seed := range []int64{2, 11} {
			t.Run(fmt.Sprintf("shards=%d/seed=%d", shards, seed), func(t *testing.T) {
				ops := genShardOps(seed, 500)
				// LeafCapacity below PageSize: deferral needs physical
				// headroom for the logically-overfull leaf.
				cfg := Config{Shards: shards, LeafCapacity: 512, IndexCapacity: 512, MaxKeySize: 32}
				inline, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer inline.Close()
				cfg.BackgroundMigration = true
				bg, err := Open(cfg)
				if err != nil {
					t.Fatal(err)
				}
				defer bg.Close()

				applyShardOps(t, inline, ops)
				applyShardOpsDrained(t, bg, ops)

				st := bg.Stats().Migrator
				if st.Migrated == 0 {
					t.Fatal("workload produced no background migrations; the property is vacuous")
				}
				if st.QueueDepth != 0 || st.PendingNodes != 0 {
					t.Fatalf("drained database still has queue=%d pending=%d", st.QueueDepth, st.PendingNodes)
				}
				if st.Abandoned != 0 {
					t.Fatalf("serialized drain abandoned %d burns", st.Abandoned)
				}
				// Verify BOTH databases (the device images include read
				// counters, so the walks must be symmetric).
				if err := inline.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
				if err := bg.CheckInvariants(); err != nil {
					t.Fatal(err)
				}

				if !reflect.DeepEqual(imageOf(t, inline), imageOf(t, bg)) {
					t.Fatalf("images diverged (tree stats inline=%+v bg=%+v)",
						inline.Stats().Tree, bg.Stats().Tree)
				}

				// Forward, reverse, and limit/paginated scans agree.
				fwdI := collectCursor(t, inline.Cursor(nil, record.InfiniteBound(), ScanOptions{}))
				fwdB := collectCursor(t, bg.Cursor(nil, record.InfiniteBound(), ScanOptions{}))
				if err := sameVersions(fwdI, fwdB); err != nil {
					t.Fatalf("forward scan: %v", err)
				}
				revI := collectCursor(t, inline.Cursor(nil, record.InfiniteBound(), ScanOptions{Reverse: true}))
				revB := collectCursor(t, bg.Cursor(nil, record.InfiniteBound(), ScanOptions{Reverse: true}))
				if err := sameVersions(revI, revB); err != nil {
					t.Fatalf("reverse scan: %v", err)
				}
				var after record.Key
				for page := 0; ; page++ {
					opts := ScanOptions{Limit: 3, After: after}
					pi := collectCursor(t, inline.Cursor(nil, record.InfiniteBound(), opts))
					pb := collectCursor(t, bg.Cursor(nil, record.InfiniteBound(), opts))
					if err := sameVersions(pi, pb); err != nil {
						t.Fatalf("limit page %d: %v", page, err)
					}
					if len(pi) == 0 {
						break
					}
					after = pi[len(pi)-1].Key
				}
			})
		}
	}
}

// TestMigratorConcurrentStress hammers a background-migration database
// from concurrent writers and readers (race-clean under -race), then
// drains and checks that every acknowledged update is reachable and the
// migrator actually ran in the background.
func TestMigratorConcurrentStress(t *testing.T) {
	d, err := Open(Config{
		Shards: 4, LeafCapacity: 512, IndexCapacity: 1024,
		BackgroundMigration: true,
	})
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
	// Concurrent readers streaming snapshots while swaps happen.
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

	if err := d.DrainMigrations(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Migrator
	if st.Migrated == 0 {
		t.Fatal("concurrent stress produced no background migrations")
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

// TestMigratorDurableCheckpointReopen runs the migrator against a durable
// database with checkpoints taken mid-stream — the
// fence path — then closes with migrations still queued and reopens: the
// recovered database must hold exactly the acknowledged updates.
func TestMigratorDurableCheckpointReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Dir: dir, Shards: 2, CheckpointBytes: -1,
		LeafCapacity: 512, IndexCapacity: 1024,
		BackgroundMigration: true,
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
	// Close WITHOUT draining: queued marks are dropped by contract; no
	// acknowledged data may depend on them.
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

// TestMigratorStatsSurface checks the migrator accounting: marks, queue
// drain, off-latch burn bytes, and that the split-latch clock ticks in
// both modes.
func TestMigratorStatsSurface(t *testing.T) {
	d, err := Open(Config{LeafCapacity: 512, IndexCapacity: 1024, BackgroundMigration: true})
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
	if err := d.DrainMigrations(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Migrator
	if !st.Enabled {
		t.Fatal("Enabled = false on a BackgroundMigration database")
	}
	if st.Marked == 0 || st.Migrated == 0 || st.BytesBurned == 0 || st.VersionsMigrated == 0 {
		t.Fatalf("migrator never ran: %+v", st)
	}
	if st.QueueDepth != 0 || st.InFlight != 0 {
		t.Fatalf("drained database reports backlog: %+v", st)
	}
	tree := d.Stats().Tree
	if tree.LeafTimeSplits == 0 {
		t.Fatal("no time splits recorded in tree stats")
	}

	inline, err := Open(Config{LeafCapacity: 512, IndexCapacity: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer inline.Close()
	for i := 0; i < 600; i++ {
		k := fmt.Sprintf("key%02d", i%8)
		if err := inline.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey(k), []byte(fmt.Sprintf("stats-payload-%04d", i)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	ist := inline.Stats().Migrator
	if ist.Enabled {
		t.Fatal("Enabled = true on an inline database")
	}
	if ist.SplitLatchNanos == 0 {
		t.Fatal("inline database reports zero split-latch time despite splits")
	}
}

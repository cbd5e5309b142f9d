package db

// Tests for the maintenance economy: WORM compaction (DB.Compact), its
// background trigger, the migrator's sticky-error surface, and the
// fuzzy checkpoint's pause accounting. The crash tests follow the
// kill-and-recover pattern of paged_recovery_test.go and are picked up
// by the CI recovery job (go test -race -run Recovery ./...).

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// seedDeadBurns drives a migration-heavy workload against a fresh paged
// directory, drains the background migrator so historical nodes are
// burned, and then crashes WITHOUT a checkpoint. On reopen every run
// burned since the open-time seal is unreferenced (the magnetic tree
// that pointed at it rolled back to the seal; replay re-burns fresh
// copies), so the directory deterministically carries dead write-once
// payload — exactly what compaction exists to reclaim. It returns the
// acknowledged commits for oracle comparison.
func seedDeadBurns(t *testing.T, cfg Config, commits int, seed int64) []oracleOp {
	t.Helper()
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	acked, unacked := runUntilCrash(t, d, rng, commits, 0)
	if unacked != nil {
		t.Fatalf("fault-free workload failed after %d commits", len(acked))
	}
	if err := d.DrainMigrations(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d.Stats().WORM.SectorsBurned == 0 {
		t.Fatal("workload burned nothing; the orphaning crash would be vacuous")
	}
	crash(d)
	return acked
}

func wormFileSize(t *testing.T, dir string) int64 {
	t.Helper()
	fi, err := os.Stat(filepath.Join(dir, "worm.dev"))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestCompactReclaimsDeadBytes is the compaction property test: after a
// workload that left dead burns behind, Compact must shrink the burn
// file on disk and in the accounting while changing NOTHING logical —
// every scan, history, and secondary lookup identical before and after,
// across a reopen too.
func TestCompactReclaimsDeadBytes(t *testing.T) {
	dir := t.TempDir()
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	cfg := pagedConfigWithSecs(dir, secs)
	cfg.BackgroundMigration = true
	acked := seedDeadBurns(t, cfg, 120, 42)

	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DrainMigrations(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats()
	if before.Device.DeadBytes == 0 {
		t.Fatal("no dead bytes after the orphaning crash")
	}
	if u := before.Device.Utilization; u < 0 || u > 1 {
		t.Fatalf("utilization %v outside [0,1]", u)
	}
	sizeBefore := wormFileSize(t, dir)

	rep, err := d.Compact()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if !rep.Attempted || rep.Aborted {
		t.Fatalf("compaction did no work: %+v", rep)
	}
	if rep.ReclaimedBytes == 0 || rep.RunsMoved == 0 {
		t.Fatalf("compaction reclaimed nothing: %+v", rep)
	}

	after := d.Stats()
	if after.Device.DeadBytes != 0 {
		t.Fatalf("DeadBytes = %d after compaction, want 0", after.Device.DeadBytes)
	}
	if after.Device.WastedBytes >= before.Device.WastedBytes {
		t.Fatalf("WastedBytes %d -> %d: did not strictly decrease",
			before.Device.WastedBytes, after.Device.WastedBytes)
	}
	if after.Device.SpaceO >= before.Device.SpaceO {
		t.Fatalf("SpaceO %d -> %d: did not strictly decrease",
			before.Device.SpaceO, after.Device.SpaceO)
	}
	if u := after.Device.Utilization; u <= before.Device.Utilization || u > 1 {
		t.Fatalf("utilization %v -> %v: did not improve into [0,1]",
			before.Device.Utilization, u)
	}
	if sizeAfter := wormFileSize(t, dir); sizeAfter >= sizeBefore {
		t.Fatalf("worm.dev %d -> %d bytes: did not shrink on disk", sizeBefore, sizeAfter)
	}
	if got := after.Compaction; got.Rounds != 1 || got.ReclaimedBytes != rep.ReclaimedBytes {
		t.Fatalf("Stats().Compaction = %+v, want one round reclaiming %d", got, rep.ReclaimedBytes)
	}

	// Logical content untouched: compare against the oracle of
	// acknowledged commits on every read surface.
	oracle := applyOracle(t, cfg, acked)
	defer oracle.Close()
	assertEquivalent(t, "compacted", d, oracle, []string{"dept"})
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// And across a reopen: the relocated addresses are durable.
	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	assertEquivalent(t, "compacted+reopened", re, oracle, []string{"dept"})
	// The file is now fully live from sector zero: a second compaction
	// must find nothing to do.
	rep2, err := re.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Attempted {
		t.Fatalf("second compaction found work on a fully-live file: %+v", rep2)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactBackgroundTrigger proves the maintenance scheduler fires
// compaction on its own once DeadBytes crosses Config.CompactDeadBytes.
func TestCompactBackgroundTrigger(t *testing.T) {
	dir := t.TempDir()
	cfg := pagedConfig(dir)
	cfg.BackgroundMigration = true
	seedDeadBurns(t, cfg, 120, 7)

	cfg.CompactDeadBytes = 1
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for d.Stats().Compaction.Rounds == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background compaction never ran: %+v", d.Stats().Compaction)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if dead := d.Stats().Device.DeadBytes; dead != 0 {
		t.Fatalf("DeadBytes = %d after background compaction, want 0", dead)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestMigratorStickyErrorSurfaces injects a burn-path fault and demands
// the migrator's sticky error reach every surface deterministically:
// DrainMigrations' return, Stats().Migrator.Err, and Close — while the
// database itself keeps serving reads and writes.
func TestMigratorStickyErrorSurfaces(t *testing.T) {
	boom := errors.New("burn device unplugged")
	cfg := Config{BackgroundMigration: true, Shards: 2, LeafCapacity: 512, IndexCapacity: 1024}
	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Safe to set after Open: no ticket can exist before the first
	// insert below, and the enqueue/pop mutex orders this write before
	// any worker's read.
	d.mig.burnHook = func(int, core.PendingSplit) error { return boom }

	var drainErr error
	for i := 0; i < 4000 && drainErr == nil; i++ {
		mustPut(t, d, fmt.Sprintf("key%02d", i%8), fmt.Sprintf("val%05d", i))
		if i%50 == 49 {
			drainErr = d.DrainMigrations()
		}
	}
	if !errors.Is(drainErr, boom) {
		t.Fatalf("DrainMigrations = %v, want %v", drainErr, boom)
	}
	if err := d.Stats().Migrator.Err; !errors.Is(err, boom) {
		t.Fatalf("Stats().Migrator.Err = %v, want %v", err, boom)
	}
	// Sticky: later drains keep reporting it.
	if err := d.DrainMigrations(); !errors.Is(err, boom) {
		t.Fatalf("second DrainMigrations = %v, want %v", err, boom)
	}
	// The database is degraded (marked leaves stay unmigrated), not dead.
	mustPut(t, d, "key00", "post-error")
	if v, ok, err := d.Get(record.StringKey("key00")); err != nil || !ok || string(v.Value) != "post-error" {
		t.Fatalf("Get after migrator error = %v %v %v", v, ok, err)
	}
	if err := d.Close(); !errors.Is(err, boom) {
		t.Fatalf("Close = %v, want %v", err, boom)
	}
}

// TestCheckpointPauseAccounting checks the Stats().Checkpoint surface
// the fuzzy paged capture exists to shrink: counts and pause nanos move.
func TestCheckpointPauseAccounting(t *testing.T) {
	d, err := Open(pagedConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		mustPut(t, d, fmt.Sprintf("key%03d", i%20), fmt.Sprintf("val%04d", i))
	}
	base := d.Stats().Checkpoint
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats().Checkpoint
	if st.Checkpoints != base.Checkpoints+1 {
		t.Fatalf("Checkpoints %d -> %d, want +1", base.Checkpoints, st.Checkpoints)
	}
	if st.LastPauseNanos == 0 || st.PauseNanos <= base.PauseNanos {
		t.Fatalf("pause accounting did not move: %+v (was %+v)", st, base)
	}
	if st.MaxPauseNanos < st.LastPauseNanos {
		t.Fatalf("MaxPauseNanos %d < LastPauseNanos %d", st.MaxPauseNanos, st.LastPauseNanos)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyDir clones a database directory so one seeded template can feed
// many crash points.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			if err := os.MkdirAll(dp, 0o755); err != nil {
				t.Fatal(err)
			}
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoveryCompactionTornSweep is the compaction kill-and-recover
// property test: seed one directory with durable dead payload, then for
// a sweep of byte offsets into the compaction's write stream — rollback
// journal, region rewrite (the copy-forward), device truncate, sealing
// checkpoint (the v4 meta install) — tear there, crash, reopen, and
// demand the logical content equal the oracle on every read surface. A
// torn compaction must either fully install or fully roll back; no live
// run may be lost either way.
func TestRecoveryCompactionTornSweep(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	tmpl := t.TempDir()
	tcfg := pagedConfigWithSecs(tmpl, secs)
	tcfg.BackgroundMigration = true
	acked := seedDeadBurns(t, tcfg, 60, 1989)

	// Stabilize the template: reopen (replay re-burns the live tail,
	// the pre-crash burns become orphans), drain, checkpoint so the
	// dead-byte account is durable, close cleanly.
	d, err := Open(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DrainMigrations(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.Stats().Device.DeadBytes == 0 {
		t.Fatal("template carries no dead bytes; the sweep would be vacuous")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	oracle := applyOracle(t, tcfg, acked)
	defer oracle.Close()

	// Byte-by-byte through the journal header and first region frames,
	// then stride across the region rewrite, truncate, and checkpoint.
	var faultPoints []int64
	for b := int64(0); b < 240; b++ {
		faultPoints = append(faultPoints, b)
	}
	for b := int64(240); b < 40_000; b += 157 {
		faultPoints = append(faultPoints, b)
	}

	for n, tear := range faultPoints {
		dir := t.TempDir()
		copyDir(t, tmpl, dir)
		plan := storage.NewTearPlan(tear)
		ccfg := tearConfig(pagedConfigWithSecs(dir, secs), plan, true, true)
		ccfg.BackgroundMigration = true
		d, err := Open(ccfg)
		if err != nil {
			// The tear fired in open's own writes (e.g. a fresh WAL
			// segment): nothing of the template can have been lost.
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("tear=%d: open: %v", tear, err)
			}
		} else {
			if _, cerr := d.Compact(); cerr != nil && !errors.Is(cerr, storage.ErrInjected) {
				t.Fatalf("tear=%d: compact: %v", tear, cerr)
			}
			crash(d)
		}

		re, err := Open(pagedConfigWithSecs(dir, secs))
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		// The per-timestamp secondary sweep dominates the runtime, so it
		// runs on a stride; scans, histories, and invariants run every
		// tear.
		var secCheck []string
		if n%8 == 0 {
			secCheck = []string{"dept"}
		}
		assertEquivalent(t, fmt.Sprintf("compact-tear=%d", tear), re, oracle, secCheck)
		re.Close()
	}
}

// TestRecoveryCompactionConcurrent runs compaction rounds against live
// concurrent writers (the install re-check and latch protocol under
// -race), then crashes and recovers: invariants must hold and every
// writer's final value must survive.
func TestRecoveryCompactionConcurrent(t *testing.T) {
	dir := t.TempDir()
	cfg := pagedConfig(dir)
	cfg.BackgroundMigration = true
	seedDeadBurns(t, cfg, 100, 11)

	d, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, keys = 3, 120, 6
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("%c-w%d-key%02d", byte('A'+w*8), w, i%keys)
				val := fmt.Sprintf("dept%02d|v%d", i%3, i)
				err := d.Update(func(tx *txn.Txn) error {
					return tx.Put(record.StringKey(key), []byte(val))
				})
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if _, err := d.Compact(); err != nil {
				t.Errorf("concurrent compact: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := d.DrainMigrations(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	crash(d)

	re, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for k := 0; k < keys; k++ {
			last := perWriter - keys + k // largest i < perWriter with i%keys == k
			key := fmt.Sprintf("%c-w%d-key%02d", byte('A'+w*8), w, k)
			want := fmt.Sprintf("dept%02d|v%d", last%3, last)
			v, ok, err := re.Get(record.StringKey(key))
			if err != nil || !ok || string(v.Value) != want {
				t.Fatalf("Get(%s) = %q %v %v, want %q", key, v.Value, ok, err, want)
			}
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
}

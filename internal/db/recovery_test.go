package db

// Kill-and-recover property tests: crash a durable database at injected
// fault points and assert that Open recovers exactly the committed
// prefix — byte-identical scans, histories, and secondary lookups
// against an in-memory oracle that applied only the acknowledged
// commits. A durable directory has two fault seams, and a TearPlan byte
// budget can be wired through either or both (tearConfig): the log-file
// seam (WAL segments, checkpoint files) and the block-file seam (the
// magnetic page file, its rollback journal, the WORM burn file). Between
// them a byte sweep tears every kind of write somewhere: mid-WAL-frame,
// mid-checkpoint-install, mid-page-flush (torn magnetic page), mid-burn
// (torn WORM sector), mid-journal.
//
// The CI recovery job runs these by name: go test -race -run Recovery ./...

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/record"
	"repro/internal/storage"
	"repro/internal/txn"
)

// oracleOp is one committed transaction as the oracle will replay it.
type oracleOp struct {
	puts map[string]string // key -> value; empty value means delete
}

// crash simulates power loss: nothing is flushed or closed in order,
// but the directory flock vanishes exactly as it does when the holding
// process dies. The background checkpointer is reaped only so the test
// process doesn't leak goroutines; a pass that already started may
// complete, which is indistinguishable from a checkpoint landing just
// before the power cut.
func crash(d *DB) {
	d.cpMu.Lock()
	stopped := d.closed
	d.closed = true
	d.cpMu.Unlock()
	if !stopped && d.stopCp != nil {
		close(d.stopCp)
		d.cpDone.Wait()
	}
	if d.dirLock != nil {
		_ = d.dirLock.Close()
	}
}

// applyOracle replays acknowledged commits into a fresh in-memory
// database with the same shape, producing the expected post-crash state.
func applyOracle(t *testing.T, cfg Config, ops []oracleOp) *DB {
	t.Helper()
	cfg.Dir = ""
	o, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		err := o.Update(func(tx *txn.Txn) error {
			for k, v := range op.puts {
				if v == "" {
					if err := tx.Delete(record.StringKey(k)); err != nil {
						return err
					}
				} else if err := tx.Put(record.StringKey(k), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("oracle replay: %v", err)
		}
	}
	return o
}

// assertEquivalent compares the recovered database against the oracle on
// every read surface: full temporal scan, per-key history, current
// snapshot, and (when present) secondary lookups at every commit time.
func assertEquivalent(t *testing.T, label string, got, want *DB, secNames []string) {
	t.Helper()
	if got.Now() != want.Now() {
		t.Fatalf("%s: clock = %v, want %v", label, got.Now(), want.Now())
	}
	gotAll, err := fullHistory(got)
	if err != nil {
		t.Fatal(err)
	}
	wantAll, err := fullHistory(want)
	if err != nil {
		t.Fatal(err)
	}
	assertSameVersions(t, label+" full temporal scan", gotAll, wantAll)
	seen := map[string]bool{}
	for _, v := range wantAll {
		if seen[string(v.Key)] {
			continue
		}
		seen[string(v.Key)] = true
		gh, err := got.History(v.Key)
		if err != nil {
			t.Fatal(err)
		}
		wh, err := want.History(v.Key)
		if err != nil {
			t.Fatal(err)
		}
		assertSameVersions(t, fmt.Sprintf("%s history(%s)", label, v.Key), gh, wh)
	}
	for _, name := range secNames {
		for at := record.Timestamp(1); at <= want.Now(); at++ {
			for _, v := range wantAll {
				if v.Tombstone || v.Time > at {
					continue
				}
				skey := deptExtract(v.Value)
				if skey == nil {
					continue
				}
				gotPK, err := got.LookupSecondary(name, skey, at)
				if err != nil {
					t.Fatal(err)
				}
				wantPK, err := want.LookupSecondary(name, skey, at)
				if err != nil {
					t.Fatal(err)
				}
				if len(gotPK) != len(wantPK) {
					t.Fatalf("%s: secondary %s(%s)@%v: %d keys, want %d",
						label, name, skey, at, len(gotPK), len(wantPK))
				}
				for i := range wantPK {
					if !gotPK[i].Equal(wantPK[i]) {
						t.Fatalf("%s: secondary %s(%s)@%v key %d = %s, want %s",
							label, name, skey, at, i, gotPK[i], wantPK[i])
					}
				}
			}
		}
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatalf("%s: invariants: %v", label, err)
	}
}

// tearConfig wires one TearPlan byte budget through the chosen fault
// seams of cfg's directory.
func tearConfig(cfg Config, plan *storage.TearPlan, logSeam, blockSeam bool) Config {
	if logSeam {
		cfg.logWrap = func(f storage.LogFile) storage.LogFile {
			return storage.NewTornLogFile(f, plan)
		}
	}
	if blockSeam {
		cfg.blockWrap = func(f storage.BlockFile) storage.BlockFile {
			return storage.NewTornBlockFile(f, plan)
		}
	}
	return cfg
}

// runUntilCrash drives single-writer commits against d, with a
// checkpoint every cpEvery commits (never when cpEvery <= 0), until the
// injected tear fires somewhere in the durable write stream or the
// workload ends. It returns the acknowledged operations in commit order
// and the operation in flight when the device died (nil if none, or if
// the tear fired inside a checkpoint instead).
func runUntilCrash(t *testing.T, d *DB, rng *rand.Rand, maxOps, cpEvery int) (acked []oracleOp, unacked *oracleOp) {
	t.Helper()
	for i := 0; i < maxOps; i++ {
		op := oracleOp{puts: map[string]string{}}
		for n := rng.Intn(3) + 1; n > 0; n-- {
			// Leading byte spans the key space so commits land on
			// every shard, not just the one owning a shared prefix.
			idx := rng.Intn(12)
			k := fmt.Sprintf("%c-key%02d", byte(idx%4)*64+33, idx)
			if rng.Intn(8) == 0 {
				op.puts[k] = "" // delete
			} else {
				op.puts[k] = fmt.Sprintf("dept%02d|val%d", rng.Intn(3), i)
			}
		}
		err := d.Update(func(tx *txn.Txn) error {
			for k, v := range op.puts {
				if v == "" {
					if err := tx.Delete(record.StringKey(k)); err != nil {
						return err
					}
				} else if err := tx.Put(record.StringKey(k), []byte(v)); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("commit failed with non-injected error: %v", err)
			}
			return acked, &op
		}
		acked = append(acked, op)
		if cpEvery > 0 && (i+1)%cpEvery == 0 {
			if err := d.Checkpoint(); err != nil {
				if !errors.Is(err, storage.ErrInjected) {
					t.Fatalf("checkpoint failed with non-injected error: %v", err)
				}
				return acked, nil
			}
		}
	}
	return acked, nil
}

// TestRecoveryTornSweep is the deterministic kill-and-recover property
// test, once per fault seam: for a dense sweep of byte offsets into the
// seam's write stream, crash there, reopen, and demand the recovered
// database equal the oracle of acknowledged commits — plus at most the
// one in-flight commit whose WAL frame happened to land intact (standard
// presumed-durable-once-logged semantics), never anything else and never
// half of it — on every read surface, secondary lookups included.
func TestRecoveryTornSweep(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	for _, seam := range []struct {
		name       string
		log, block bool
		// Tear points: every byte below dense, then every stride-th up
		// to end, which is about where the longest run's stream ends.
		dense, end, stride int64
		maxOps, cpEvery    int
	}{
		// WAL appends and checkpoint installs. The dense prefix covers
		// the seal checkpoint's frames and the first commit frames
		// (frame boundaries, headers, CRC bytes all land in it); the
		// first 16 commits are a pure log tail, later tears also land in
		// the two mid-run checkpoint installs and the tails after them.
		{"log", true, false, 160, 3200, 19, 40, 16},
		// Page flushes, rollback-journal appends and WORM burns of a
		// checkpoint-heavy run. The dense prefix covers the device-file
		// creation; the span is long enough for several checkpoint
		// flushes.
		{"block", false, true, 220, 44_000, 211, 60, 7},
	} {
		t.Run("seam="+seam.name, func(t *testing.T) {
			var faultPoints []int64
			for b := int64(0); b < seam.dense; b++ {
				faultPoints = append(faultPoints, b)
			}
			for b := seam.dense; b < seam.end; b += seam.stride {
				faultPoints = append(faultPoints, b)
			}
			for _, tear := range faultPoints {
				dir := t.TempDir()
				clean := pagedConfigWithSecs(dir, secs)
				d, err := Open(tearConfig(clean, storage.NewTearPlan(tear), seam.log, seam.block))
				if err != nil {
					// The tear fired during the open-time seal checkpoint
					// (or the device-file creation): the directory must
					// still recover, as empty.
					if !errors.Is(err, storage.ErrInjected) {
						t.Fatalf("tear=%d: open: %v", tear, err)
					}
					re, rerr := Open(clean)
					if rerr != nil {
						t.Fatalf("tear=%d: recovery of torn-seal directory: %v", tear, rerr)
					}
					if re.Now() != 0 {
						t.Fatalf("tear=%d: torn-seal directory recovered clock %v", tear, re.Now())
					}
					re.Close()
					continue
				}
				rng := rand.New(rand.NewSource(tear))
				acked, unacked := runUntilCrash(t, d, rng, seam.maxOps, seam.cpEvery)
				// Simulated power loss: drop the handle without Close.
				crash(d)

				reopened, err := Open(clean)
				if err != nil {
					t.Fatalf("tear=%d: recovery failed: %v", tear, err)
				}
				label := fmt.Sprintf("tear=%d", tear)
				// The recovered state is the acknowledged prefix, possibly
				// plus the single unacknowledged in-flight commit if its
				// frame was fully durable before the crash. Which of the
				// two is decided by the recovered clock.
				want := acked
				if unacked != nil && reopened.Now() == record.Timestamp(len(acked))+1 {
					want = append(append([]oracleOp{}, acked...), *unacked)
				} else if reopened.Now() != record.Timestamp(len(acked)) {
					t.Fatalf("%s: recovered clock %v with %d acked commits", label, reopened.Now(), len(acked))
				}
				oracle := applyOracle(t, clean, want)
				assertEquivalent(t, label, reopened, oracle, []string{"dept"})
				reopened.Close()
				oracle.Close()
			}
		})
	}
}

// TestRecoveryMidCheckpointCrash crashes inside the checkpoint writer,
// after the page flush and before the install: the half-written temp
// file must be ignored, the rollback journal must restore the previous
// boundary image, and the previous checkpoint + full log must still
// recover everything acknowledged. (The checkpoint file is ~170 bytes
// here; every tear lands inside it.)
func TestRecoveryMidCheckpointCrash(t *testing.T) {
	for _, tear := range []int64{0, 1, 7, 64, 120, 160} {
		dir := t.TempDir()
		d, err := Open(Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tear))
		acked, _ := runUntilCrash(t, d, rng, 30, 0)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		more, _ := runUntilCrash(t, d, rng, 10, 0)
		acked = append(acked, more...)

		// Now a checkpoint whose file writes tear after `tear` bytes.
		plan := storage.NewTearPlan(tear)
		d.logWrap = func(f storage.LogFile) storage.LogFile {
			return storage.NewTornLogFile(f, plan)
		}
		if err := d.Checkpoint(); !errors.Is(err, storage.ErrInjected) {
			t.Fatalf("tear=%d: torn checkpoint error = %v", tear, err)
		}
		// Power loss here. Recovery must not trust the torn temp file.
		crash(d)
		reopened, err := Open(Config{Dir: dir, Shards: 2, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		oracle := applyOracle(t, Config{Shards: 2}, acked)
		assertEquivalent(t, fmt.Sprintf("ckpt-tear=%d", tear), reopened, oracle, nil)
		reopened.Close()
		oracle.Close()
	}
}

// concurrentCrash crashes a concurrent multi-writer, checkpoint-heavy run
// of base's shape at arbitrary offsets into the chosen seams' write
// stream and asserts the durability invariants that survive
// nondeterminism: every acknowledged commit is fully present, and every
// unacknowledged commit is fully present or fully absent (frame
// atomicity) — never torn, never a phantom — with invariants intact and
// the database writable afterwards. Race-clean.
func concurrentCrash(t *testing.T, base Config, logSeam, blockSeam bool, tears []int64) {
	base.Shards = 4
	for _, tear := range tears {
		clean := base
		clean.Dir = t.TempDir()
		clean.CheckpointBytes = -1
		cfg := tearConfig(clean, storage.NewTearPlan(tear), logSeam, blockSeam)
		cfg.CheckpointBytes = 2048
		d, err := Open(cfg)
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue // tear landed in the seal checkpoint
			}
			t.Fatal(err)
		}
		const workers = 4
		var mu sync.Mutex
		acked := map[string]bool{}     // "key=value" pairs acknowledged
		attempted := map[string]bool{} // pairs a worker tried to commit
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; ; i++ {
					// Each worker owns its keys: no lock conflicts, and
					// each (key,value) pair is attempted exactly once.
					k := fmt.Sprintf("w%d-key%02d", w, i%16)
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
					acked[k+"="+val] = true
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		// Power loss: no Close.
		crash(d)

		reopened, err := Open(clean)
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		// Collect every recovered (key, value) pair across all time.
		all, err := fullHistory(reopened)
		if err != nil {
			t.Fatal(err)
		}
		recovered := map[string]bool{}
		for _, v := range all {
			recovered[string(v.Key)+"="+string(v.Value)] = true
		}
		// Durability: every acknowledged pair is present.
		for pair := range acked {
			if !recovered[pair] {
				t.Fatalf("tear=%d: acknowledged %q lost", tear, pair)
			}
		}
		// No phantoms: every recovered pair was at least attempted.
		for pair := range recovered {
			if !attempted[pair] {
				t.Fatalf("tear=%d: recovered %q was never written", tear, pair)
			}
		}
		if err := reopened.CheckInvariants(); err != nil {
			t.Fatalf("tear=%d: invariants: %v", tear, err)
		}
		// And the recovered database keeps working.
		if err := reopened.Update(func(tx *txn.Txn) error {
			return tx.Put(record.StringKey("post"), []byte("crash"))
		}); err != nil {
			t.Fatalf("tear=%d: write after recovery: %v", tear, err)
		}
		reopened.Close()
	}
}

// TestRecoveryConcurrentCrash tears the log-file seam under default-size
// nodes: WAL appends and background checkpoint installs.
func TestRecoveryConcurrentCrash(t *testing.T) {
	concurrentCrash(t, Config{}, true, false, []int64{300, 1500, 4000, 9000})
}

// TestRecoveryPagedConcurrentCrash tears the whole durable write stream,
// both seams on one budget, under small nodes (splits, burns and page
// flushes race the writers).
func TestRecoveryPagedConcurrentCrash(t *testing.T) {
	concurrentCrash(t, pagedConfig(""), true, true, []int64{2000, 8000, 20_000, 45_000})
}

// TestRecoveryPagedDoubleCrash tears a first recovery-and-run, then
// crashes AGAIN mid-stream and recovers once more: the journal/boundary
// protocol must compose across repeated crashes. Both seams share each
// budget.
func TestRecoveryPagedDoubleCrash(t *testing.T) {
	secs := map[string]SecondaryExtract{"dept": deptExtract}
	for _, tears := range [][2]int64{{3000, 2000}, {9000, 5000}, {17_000, 900}, {26_000, 12_000}} {
		clean := pagedConfigWithSecs(t.TempDir(), secs)
		d, err := Open(tearConfig(clean, storage.NewTearPlan(tears[0]), true, true))
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue
			}
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(tears[0]))
		acked, unacked := runUntilCrash(t, d, rng, 60, 7)
		crash(d)

		d2, err := Open(tearConfig(clean, storage.NewTearPlan(tears[1]), true, true))
		if err != nil {
			if !errors.Is(err, storage.ErrInjected) {
				t.Fatalf("tears=%v: second open: %v", tears, err)
			}
			continue // the second tear fired during recovery's own opens
		}
		if unacked != nil && d2.Now() == record.Timestamp(len(acked))+1 {
			acked = append(acked, *unacked)
		}
		more, unacked2 := runUntilCrash(t, d2, rng, 40, 5)
		acked = append(acked, more...)
		crash(d2)

		re, err := Open(clean)
		if err != nil {
			t.Fatalf("tears=%v: final recovery: %v", tears, err)
		}
		label := fmt.Sprintf("double-tear=%v", tears)
		want := acked
		if unacked2 != nil && re.Now() == record.Timestamp(len(acked))+1 {
			want = append(append([]oracleOp{}, acked...), *unacked2)
		} else if re.Now() != record.Timestamp(len(acked)) {
			t.Fatalf("%s: recovered clock %v with %d acked commits", label, re.Now(), len(acked))
		}
		oracle := applyOracle(t, clean, want)
		assertEquivalent(t, label, re, oracle, []string{"dept"})
		re.Close()
		oracle.Close()
	}
}

// TestRecoveryMultiKeyAtomicity tears inside multi-key commit frames and
// asserts a transaction is never half-recovered: for every commit, all
// of its keys carry its commit time or none do.
func TestRecoveryMultiKeyAtomicity(t *testing.T) {
	for tear := int64(50); tear < 2500; tear += 61 {
		dir := t.TempDir()
		plan := storage.NewTearPlan(tear)
		d, err := Open(Config{
			Dir: dir, Shards: 4, CheckpointBytes: -1,
			logWrap: func(f storage.LogFile) storage.LogFile {
				return storage.NewTornLogFile(f, plan)
			},
		})
		if err != nil {
			if errors.Is(err, storage.ErrInjected) {
				continue
			}
			t.Fatal(err)
		}
		// Every commit touches the same 4 keys, spread across shards.
		keys := []string{"a-far-left", "h-middle-1", "p-middle-2", "z-far-right"}
		for i := 0; ; i++ {
			err := d.Update(func(tx *txn.Txn) error {
				for _, k := range keys {
					if err := tx.Put(record.StringKey(k), []byte(fmt.Sprintf("gen%04d", i))); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				break
			}
			if i > 200 {
				t.Fatalf("tear=%d never fired", tear)
			}
		}
		crash(d)
		reopened, err := Open(Config{Dir: dir, Shards: 4, CheckpointBytes: -1})
		if err != nil {
			t.Fatalf("tear=%d: recovery: %v", tear, err)
		}
		for at := record.Timestamp(1); at <= reopened.Now(); at++ {
			count := 0
			var gen string
			for _, k := range keys {
				hist, err := reopened.History(record.StringKey(k))
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range hist {
					if v.Time == at {
						count++
						if gen == "" {
							gen = string(v.Value)
						} else if gen != string(v.Value) {
							t.Fatalf("tear=%d: commit %v mixes %q and %q", tear, at, gen, v.Value)
						}
					}
				}
			}
			if count != len(keys) {
				t.Fatalf("tear=%d: commit %v recovered %d of %d keys (torn transaction)",
					tear, at, count, len(keys))
			}
		}
		reopened.Close()
	}
}
